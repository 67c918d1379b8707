//! Fault-tolerant transport for the report-stream protocol.
//!
//! The [`service`](crate::service) module defines *what* travels (framed
//! [`WireMessage`](crate::service::WireMessage)s in, framed
//! [`ResponseMessage`](crate::service::ResponseMessage)s out); this
//! module defines *how it survives a real network*:
//!
//! * [`server`] — a [`ReportServer`]: per-connection threads applying
//!   their messages to one service under one lock. Backpressure is
//!   explicit (more than `queue_capacity` messages in flight ⇒ typed
//!   `Overloaded` shed, not unbounded waiting), faults are
//!   connection-scoped (a hostile or desynced client is dropped and
//!   counted, never poisons shared state), and shutdown drains before it
//!   stops.
//! * [`client`] — a [`ReportClient`]: connect timeouts, seeded
//!   exponential [`backoff`] with jitter, reconnect-with-`Hello`-replay,
//!   and resend of unacknowledged submits. The server's privacy-budget
//!   ledger answers a resent-but-already-admitted report with a
//!   `Duplicate` verdict, so retries are **idempotent by construction**
//!   — at-most-once budget spend without client-side bookkeeping.
//! * [`chaos`] — a deterministic fault injector ([`ChaosStream`]) and an
//!   in-process socket pair ([`duplex`]), so the integration suite can
//!   prove the property that matters: a chaos-ridden run's merged
//!   snapshot is *bit-identical* to a clean run's.
//! * [`net`] (feature `net`, on by default) — `std::net` TCP and Unix
//!   domain socket shells over the stream-agnostic core, sharing one
//!   accept loop that reuses idle connection threads.
//!
//! ## Verdicts and the retry contract
//!
//! Three signals cover everything that can go wrong short of a dead
//! wire, and each prescribes exactly one client reaction:
//!
//! * [`AckOutcome::Overloaded`](crate::service::AckOutcome::Overloaded)
//!   — the server's in-flight bound shed the submit **before** any
//!   validation or ledger state was touched. Nothing was spent; the
//!   client pauses on its [`Backoff`] schedule and resends on the *same*
//!   connection.
//! * [`ResponseMessage::Resend`](crate::service::ResponseMessage::Resend)
//!   — a frame arrived checksum-corrupt but well-delimited. The stream
//!   is still in sync, so the client rewrites the same frame in place;
//!   after [`ClientConfig::max_resends`] bounces the connection is
//!   declared hostile and rebuilt.
//! * [`StreamFault`](crate::service::StreamFault) — desynchronizing
//!   damage (truncation, an oversized length, an I/O error), recorded
//!   with the exact byte offset. The server ends *that connection only*;
//!   the client reconnects, replays its `Hello`, and retries.
//!
//! Whenever an ack is lost the submit's fate is unknown, and the only
//! safe move is to resend. That is safe because the server's
//! [`BudgetLedger`](crate::ledger::BudgetLedger) answers a resend of an
//! already-admitted `(user, epoch)` with a
//! [`Duplicate`](crate::service::AckOutcome::Duplicate) verdict, which
//! [`ReportClient`] surfaces as the *success*
//! [`SubmitOutcome::AlreadyAdmitted`]: **at-most-once budget spend, no
//! client-side bookkeeping** — retries can only ever be counted, never
//! double-spent.
//!
//! ## Example: a client/server round trip
//!
//! An in-process connection (a deployment would use
//! [`TcpConnector`]/[`TcpReportServer`]; the contract is identical):
//!
//! ```
//! use ldp_analytics::service::{encode_report, WireMessage};
//! use ldp_analytics::transport::{
//!     duplex, ClientConfig, Connect, PipeStream, ReportClient, ReportServer, ServerConfig,
//!     SubmitOutcome,
//! };
//! use ldp_analytics::{ClientEncoder, Protocol};
//! use ldp_core::multidim::{AttrSpec, AttrValue};
//! use ldp_core::rng::seeded_rng;
//! use ldp_core::{Epsilon, IoFault, LdpError, NumericKind, OracleKind};
//!
//! // A connector over one pre-wired duplex half.
//! struct OneShot(Option<PipeStream>);
//! impl Connect for OneShot {
//!     type Stream = PipeStream;
//!     fn connect(&mut self) -> ldp_core::Result<PipeStream> {
//!         self.0.take().ok_or(LdpError::ConnectionLost {
//!             op: "connect",
//!             cause: IoFault {
//!                 kind: std::io::ErrorKind::ConnectionRefused,
//!                 message: "single test stream already used".into(),
//!             },
//!         })
//!     }
//! }
//!
//! let protocol = Protocol::Sampling {
//!     numeric: NumericKind::Hybrid,
//!     oracle: OracleKind::Oue,
//! };
//! let epsilon = Epsilon::new(1.0)?;
//! let specs = vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }];
//!
//! // Server: each connection thread applies its messages to the shared
//! // service; here one in-process connection is served on a spawned thread.
//! let server = ReportServer::start(ServerConfig::default());
//! let (client_half, mut server_half) = duplex();
//! let handle = server.handle();
//! let conn = std::thread::spawn(move || handle.serve_stream(&mut server_half));
//!
//! // Client: reconnect + retry around the framed protocol.
//! let hello = WireMessage::Hello {
//!     protocol,
//!     epsilon,
//!     specs: specs.clone(),
//!     epoch: 0,
//! };
//! let mut client = ReportClient::new(OneShot(Some(client_half)), hello, ClientConfig::default())?;
//!
//! let encoder = ClientEncoder::new(protocol, epsilon, specs.clone())?;
//! let record = vec![AttrValue::Numeric(0.25), AttrValue::Categorical(1)];
//! let mut rng = seeded_rng(7);
//! for user in 0..10u64 {
//!     let report = encoder.encode(&record, &mut rng)?;
//!     let outcome = client.submit(user, 0, 0, encode_report(&report, &specs))?;
//!     assert_eq!(outcome, SubmitOutcome::Admitted);
//! }
//!
//! // Retrying an already-admitted user is success, not a double spend.
//! let report = encoder.encode(&record, &mut rng)?;
//! let outcome = client.submit(3, 0, 0, encode_report(&report, &specs))?;
//! assert_eq!(outcome, SubmitOutcome::AlreadyAdmitted);
//!
//! let receipt = client.flush_epoch(0)?;
//! assert_eq!(receipt.admitted, 10);
//! assert_eq!(receipt.rejected_duplicates, 1);
//!
//! client.close();
//! conn.join().expect("connection thread");
//! let service = server.finish(); // waits for every handle, returns the service
//! assert_eq!(service.snapshot_epoch(0)?.admitted, 10);
//! # Ok::<(), LdpError>(())
//! ```

pub mod backoff;
pub mod chaos;
pub mod client;
#[cfg(feature = "net")]
pub mod net;
pub mod server;

pub use backoff::Backoff;
pub use chaos::{duplex, ChaosConfig, ChaosStream, CrashSwitch, FaultCounts, PipeStream};
pub use client::{ClientConfig, ClientStats, Connect, FlushReceipt, ReportClient, SubmitOutcome};
#[cfg(feature = "net")]
pub use net::{NetConfig, TcpConnector, TcpReportServer};
pub use server::{ConnHandle, ConnSummary, ReportServer, ServerConfig, TransportStats};

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::time::Duration;

    use ldp_core::{Epsilon, LdpError};

    use super::chaos::duplex;
    use super::client::{ClientConfig, Connect, ReportClient, SubmitOutcome};
    use super::server::{ReportServer, ServerConfig};
    use crate::pipeline::Protocol;
    use crate::service::{encode_report, AckOutcome, ResponseMessage, ServiceConfig, WireMessage};
    use crate::session::ClientEncoder;
    use ldp_core::multidim::{AttrSpec, AttrValue};
    use ldp_core::rng::seeded_rng;
    use ldp_core::{NumericKind, OracleKind};

    fn specs() -> Vec<AttrSpec> {
        vec![AttrSpec::Numeric, AttrSpec::Categorical { k: 4 }]
    }

    fn protocol() -> Protocol {
        Protocol::Sampling {
            numeric: NumericKind::Hybrid,
            oracle: OracleKind::Oue,
        }
    }

    pub(super) fn hello() -> WireMessage {
        WireMessage::Hello {
            protocol: protocol(),
            epsilon: Epsilon::new(1.0).unwrap(),
            specs: specs(),
            epoch: 0,
        }
    }

    pub(super) fn report_bytes(user: u64) -> Vec<u8> {
        let encoder = ClientEncoder::new(protocol(), Epsilon::new(1.0).unwrap(), specs()).unwrap();
        let mut rng = seeded_rng(user ^ 0xD1CE);
        let record = vec![AttrValue::Numeric(0.25), AttrValue::Categorical(1)];
        let report = encoder.encode(&record, &mut rng).unwrap();
        encode_report(&report, &specs())
    }

    /// A connector yielding pre-built duplex halves (each one wired to a
    /// live server thread by the test).
    struct QueueConnector {
        streams: Vec<super::chaos::PipeStream>,
    }

    impl Connect for QueueConnector {
        type Stream = super::chaos::PipeStream;
        fn connect(&mut self) -> ldp_core::Result<Self::Stream> {
            self.streams.pop().ok_or(LdpError::ConnectionLost {
                op: "connect",
                cause: ldp_core::IoFault {
                    kind: std::io::ErrorKind::ConnectionRefused,
                    message: "no more test streams".into(),
                },
            })
        }
    }

    pub(super) fn no_sleep_config() -> ClientConfig {
        ClientConfig {
            max_attempts: 8,
            max_resends: 8,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            backoff_seed: 1,
        }
    }

    #[test]
    fn end_to_end_submit_flush_over_duplex() {
        let server = ReportServer::start(ServerConfig::default());
        let (client_half, mut server_half) = duplex();
        let handle = server.handle();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_half));

        let connector = QueueConnector {
            streams: vec![client_half],
        };
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        for user in 0..20u64 {
            let outcome = client
                .submit(user, 0, user / 8, report_bytes(user))
                .unwrap();
            assert_eq!(outcome, SubmitOutcome::Admitted);
        }
        // Resubmitting a user is answered Duplicate and surfaces as
        // AlreadyAdmitted — the idempotency contract.
        let outcome = client.submit(3, 0, 0, report_bytes(3)).unwrap();
        assert_eq!(outcome, SubmitOutcome::AlreadyAdmitted);
        assert_eq!(client.stats().duplicate_acks, 1);

        let receipt = client.flush_epoch(0).unwrap();
        assert_eq!(receipt.admitted, 20);
        assert_eq!(receipt.rejected_duplicates, 1);
        assert_eq!(receipt.users, 20);

        client.close();
        let summary = conn_thread.join().unwrap();
        assert!(summary.shutdown, "close() must send Shutdown");
        assert!(summary.fault.is_none());

        let service = server.finish();
        let snap = service.snapshot_epoch(0).unwrap();
        assert_eq!(snap.admitted, 20);
        assert_eq!(snap.rejected_duplicates, 1);
    }

    #[test]
    fn full_queue_sheds_with_overloaded_ack() {
        // A capacity-1 server whose one slot is held by a slow message is
        // hard to arrange deterministically; instead, drive serve_stream
        // against a handle whose only in-flight slot is already taken.
        let handle = super::server::testutil::wedged_handle(1);
        let _occupied = super::server::testutil::fill(&handle);

        let (mut client_half, mut server_half) = duplex();
        let conn = handle.clone();
        let conn_thread = std::thread::spawn(move || conn.serve_stream(&mut server_half));

        WireMessage::Submit {
            user: 9,
            epoch: 0,
            block: 0,
            report: vec![1, 2, 3],
        }
        .write_to(&mut client_half)
        .unwrap();
        let mut scratch = Vec::new();
        let resp = ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("shed verdict");
        assert_eq!(
            resp,
            ResponseMessage::Ack {
                user: 9,
                epoch: 0,
                outcome: AckOutcome::Overloaded
            },
            "full queue must shed with an Overloaded ack, not block"
        );
        drop(client_half);
        let summary = conn_thread.join().unwrap();
        assert!(summary.fault.is_none(), "shedding is not a fault");
    }

    #[test]
    fn in_flight_slots_return_after_every_exit() {
        let server = ReportServer::start(ServerConfig {
            service: ServiceConfig::default(),
            queue_capacity: 1,
        });
        let handle = server.handle();
        let serve = |mut stream: super::chaos::PipeStream| {
            let conn = handle.clone();
            std::thread::spawn(move || conn.serve_stream(&mut stream))
        };
        let mut scratch = Vec::new();

        // A shed: the only slot is taken, so the submit bounces off it.
        let occupied = super::server::testutil::fill(&handle);
        let (mut client_half, server_half) = duplex();
        let conn_thread = serve(server_half);
        WireMessage::Submit {
            user: 1,
            epoch: 0,
            block: 0,
            report: report_bytes(1),
        }
        .write_to(&mut client_half)
        .unwrap();
        let resp = ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("shed verdict");
        assert!(matches!(
            resp,
            ResponseMessage::Ack {
                outcome: AckOutcome::Overloaded,
                ..
            }
        ));
        assert_eq!(handle.in_flight(), 1, "the shed must return its own slot");
        drop(occupied);
        drop(client_half);
        conn_thread.join().unwrap();
        assert_eq!(handle.in_flight(), 0, "after a shed");

        // A faulted connection: a hello, then a cut mid-frame.
        let (mut client_half, server_half) = duplex();
        let conn_thread = serve(server_half);
        hello().write_to(&mut client_half).unwrap();
        ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("hello ack");
        let frame = WireMessage::Submit {
            user: 2,
            epoch: 0,
            block: 0,
            report: report_bytes(2),
        }
        .to_frame()
        .unwrap();
        client_half.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(client_half);
        assert!(conn_thread.join().unwrap().fault.is_some());
        assert_eq!(handle.in_flight(), 0, "after a faulted connection");

        // A clean close.
        let (client_half, server_half) = duplex();
        let conn_thread = serve(server_half);
        let connector = QueueConnector {
            streams: vec![client_half],
        };
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        for user in 3..6u64 {
            assert_eq!(
                client.submit(user, 0, 0, report_bytes(user)).unwrap(),
                SubmitOutcome::Admitted
            );
        }
        client.close();
        assert!(conn_thread.join().unwrap().fault.is_none());
        assert_eq!(handle.in_flight(), 0, "after a clean close");

        drop(handle);
        assert_eq!(server.finish().snapshot_epoch(0).unwrap().admitted, 3);
    }

    #[test]
    fn finish_drains_outstanding_connections() {
        let server = ReportServer::start(ServerConfig::default());
        let (client_half, mut server_half) = duplex();
        let handle = server.handle();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_half));
        let connector = QueueConnector {
            streams: vec![client_half],
        };
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        let mut submit = |user: u64| {
            let outcome = client.submit(user, 0, user / 8, report_bytes(user));
            assert_eq!(outcome.unwrap(), SubmitOutcome::Admitted);
        };
        submit(0);

        // `finish` is called while the connection is still serving...
        let finisher = std::thread::spawn(move || server.finish());
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !finisher.is_finished(),
            "finish must wait for the open connection"
        );
        // ...so everything that connection submits afterwards still lands.
        for user in 1..20u64 {
            submit(user);
        }
        client.close();
        conn_thread.join().unwrap();
        let service = finisher.join().unwrap();
        assert_eq!(service.snapshot_epoch(0).unwrap().admitted, 20);
    }

    #[cfg(all(unix, feature = "net"))]
    #[test]
    fn unix_server_stats_count_every_submit() {
        use super::net::unix::{UnixConnector, UnixReportServer};
        use super::net::NetConfig;

        let path = std::env::temp_dir().join(format!("ldp-uds-stats-{}.sock", std::process::id()));
        let server = UnixReportServer::bind(&path, ServerConfig::default(), NetConfig::default())
            .expect("bind unix socket");
        let stats = server.stats();
        let connector = UnixConnector::new(server.path());
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        for user in 0..12u64 {
            assert_eq!(
                client.submit(user, 0, 0, report_bytes(user)).unwrap(),
                SubmitOutcome::Admitted
            );
        }
        client.close();
        let (service, summaries) = server.finish();
        let admitted = service.snapshot_epoch(0).unwrap().admitted;
        assert_eq!(admitted, 12);
        assert_eq!(stats.submits(), admitted);
        assert_eq!(stats.connections(), summaries.len() as u64);
    }

    #[test]
    fn hostile_connection_is_isolated_from_healthy_ones() {
        let server = ReportServer::start(ServerConfig {
            service: ServiceConfig::default(),
            queue_capacity: 64,
        });

        // Hostile client: valid hello, then a stream that dies mid-frame.
        let (mut hostile_half, mut hostile_server) = duplex();
        let handle = server.handle();
        let hostile_thread = std::thread::spawn(move || handle.serve_stream(&mut hostile_server));
        hello().write_to(&mut hostile_half).unwrap();
        let mut scratch = Vec::new();
        ResponseMessage::read_from(&mut hostile_half, &mut scratch)
            .unwrap()
            .expect("hello ack");
        let frame = WireMessage::Submit {
            user: 50,
            epoch: 0,
            block: 0,
            report: report_bytes(50),
        }
        .to_frame()
        .unwrap();
        hostile_half.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(hostile_half); // mid-frame disconnect
        let hostile_summary = hostile_thread.join().unwrap();
        let fault = hostile_summary.fault.expect("mid-frame cut is a fault");
        assert!(matches!(fault.error, LdpError::MalformedFrame { .. }));

        // A healthy client on the same server still works end to end.
        let (healthy_half, mut healthy_server) = duplex();
        let handle = server.handle();
        let healthy_thread = std::thread::spawn(move || handle.serve_stream(&mut healthy_server));
        let connector = QueueConnector {
            streams: vec![healthy_half],
        };
        let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
        assert_eq!(
            client.submit(1, 0, 0, report_bytes(1)).unwrap(),
            SubmitOutcome::Admitted
        );
        client.close();
        healthy_thread.join().unwrap();

        let stats = server.stats();
        assert_eq!(stats.faulted_connections(), 1);
        assert_eq!(stats.connections(), 2);
        let service = server.finish();
        // The hostile client's half-submit never reached state; the
        // healthy submit did.
        assert_eq!(service.snapshot_epoch(0).unwrap().admitted, 1);
    }

    #[test]
    fn corrupt_request_frame_earns_a_resend_not_a_disconnect() {
        let server = ReportServer::start(ServerConfig::default());
        let (mut client_half, mut server_half) = duplex();
        let handle = server.handle();
        let conn_thread = std::thread::spawn(move || handle.serve_stream(&mut server_half));

        let mut frame = hello().to_frame().unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x40; // corrupt the payload, checksum now disagrees
        client_half.write_all(&frame).unwrap();
        let mut scratch = Vec::new();
        let resp = ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("resend request");
        assert_eq!(resp, ResponseMessage::Resend);

        // The connection is still alive: the clean frame now succeeds.
        hello().write_to(&mut client_half).unwrap();
        let resp = ResponseMessage::read_from(&mut client_half, &mut scratch)
            .unwrap()
            .expect("hello ack");
        assert_eq!(resp, ResponseMessage::HelloAck);

        drop(client_half);
        let summary = conn_thread.join().unwrap();
        assert_eq!(summary.corrupt_frames, 1);
        assert!(summary.fault.is_none());
        assert_eq!(server.stats().corrupt_frames(), 1);
        server.finish();
    }

    /// `ReportService::serve` and `ConnHandle::serve_stream` run one read
    /// loop; fed the same hostile bytes they must agree on everything but
    /// the corrupt frame, which only the socket path can ask to resend.
    #[test]
    fn serve_and_serve_stream_agree_on_a_hostile_stream() {
        use crate::service::{ReportService, KIND_SUBMIT};
        use ldp_core::frame;

        /// Reads a fixed byte stream, collects whatever is written back.
        struct Loopback<'a> {
            input: &'a [u8],
            output: Vec<u8>,
        }
        impl std::io::Read for Loopback<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Loopback<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let submit = |user: u64| WireMessage::Submit {
            user,
            epoch: 0,
            block: user % 3,
            report: report_bytes(user),
        };
        let mut stream = Vec::new();
        hello().write_to(&mut stream).unwrap();
        for user in 0..12 {
            submit(user).write_to(&mut stream).unwrap();
        }
        let mut corrupt = submit(12).to_frame().unwrap();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        stream.extend_from_slice(&corrupt);
        frame::write_frame(&mut stream, KIND_SUBMIT, b"short").unwrap();
        submit(5).write_to(&mut stream).unwrap();
        WireMessage::FlushEpoch { epoch: 0 }
            .write_to(&mut stream)
            .unwrap();
        let tail_start = stream.len() as u64;
        let tail = submit(13).to_frame().unwrap();
        stream.extend_from_slice(&tail[..tail.len() / 2]);

        let mut direct = ReportService::new(ServiceConfig::default());
        let served = direct.serve(&mut stream.as_slice()).unwrap();

        let server = ReportServer::start(ServerConfig::default());
        let mut wire = Loopback {
            input: &stream,
            output: Vec::new(),
        };
        let conn = server.handle().serve_stream(&mut wire);
        let socketed = server.finish();

        // Framing: the same frames consumed, the same typed fault at the
        // tail's first byte.
        assert_eq!(served.frames, 17);
        assert_eq!(conn.frames, served.frames);
        assert_eq!(conn.responded, conn.frames);
        assert_eq!(conn.corrupt_frames, 1);
        let fault = served.desync.clone().expect("truncated tail");
        assert_eq!(fault.offset, tail_start);
        assert!(matches!(fault.error, LdpError::MalformedFrame { .. }));
        assert_eq!(conn.fault, served.desync);
        assert!(!served.shutdown && !conn.shutdown);

        // Admission: the same users, the duplicate rejected by both.
        for user in 0..14 {
            assert_eq!(
                socketed.ledger().contains(user, 0),
                direct.ledger().contains(user, 0),
                "user {user}"
            );
        }
        assert_eq!(served.admitted, 12);
        assert_eq!(served.rejected_duplicates, 1);

        // Estimates: the flushed snapshots agree bit for bit.
        let flushed = &served.snapshots[0];
        let snap = socketed.snapshot_epoch(0).unwrap();
        assert_eq!(snap.admitted, flushed.admitted);
        assert_eq!(snap.rejected_duplicates, flushed.rejected_duplicates);
        let (a, b) = (flushed.result.as_ref().unwrap(), snap.result.unwrap());
        assert_eq!(a.n, b.n);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(a.mean_vector()), bits(b.mean_vector()));
        for ((i, fa), (j, fb)) in a.frequencies.iter().zip(&b.frequencies) {
            assert_eq!(i, j);
            assert_eq!(bits(fa.clone()), bits(fb.clone()));
        }

        // Malformed counts differ by exactly the corrupt frames: lost (and
        // counted) in-process, resent (and not counted) over the socket.
        assert_eq!(served.rejected_malformed, 2);
        assert_eq!(
            direct.rejected_malformed() - socketed.rejected_malformed(),
            conn.corrupt_frames
        );
        assert_eq!(
            flushed.rejected_malformed - snap.rejected_malformed,
            conn.corrupt_frames
        );

        // The socket path answered every frame, the corrupt one with a
        // resend request.
        let mut responses = wire.output.as_slice();
        let mut scratch = Vec::new();
        let mut resends = 0;
        while let Some(resp) = ResponseMessage::read_from(&mut responses, &mut scratch).unwrap() {
            resends += u64::from(resp == ResponseMessage::Resend);
        }
        assert_eq!(resends, conn.corrupt_frames);
    }
}
