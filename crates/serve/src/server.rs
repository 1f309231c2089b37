//! The bounded accept/worker machinery.
//!
//! One acceptor thread pulls connections off the listener and pushes
//! them into a **bounded** `sync_channel`; a fixed pool of worker
//! threads drains it. A worker keeps its connection and serves request
//! after request on it (HTTP/1.1 persistent connections), so the queue
//! holds *connections* waiting for a worker, not requests. A worker
//! closes its connection only between requests: when the client asked
//! for it (`Connection: close`), after a request that failed to parse
//! (its framing is lost), when the connection sat idle for
//! `io_timeout`, or — once it has served a request — when the server is
//! shutting down or another connection is waiting in the queue. A
//! worker that reaches the end of a request in those last two cases
//! answers it with `Connection: close`; one that sits waiting on an
//! idle kept connection is woken at once (the read side of its socket
//! is shut down). Either way the worker never starts on a request it
//! does not answer, so a client may resend a request on a fresh
//! connection when a kept one gave it no reply at all.
//!
//! The two overload responses are explicit:
//!
//! * queue full → the *acceptor* writes an immediate `503` and closes
//!   the connection (`caf.serve.shed`), so a burst degrades to fast
//!   rejections instead of unbounded queueing or accept-backlog
//!   timeouts;
//! * a single worker stuck on a slow client is bounded by per-socket
//!   read/write timeouts.
//!
//! Shutdown is cooperative: any handler response with
//! `shutdown = true` (the `/quitquitquit` endpoint), or an external
//! [`ShutdownHandle::trigger`], flips the shared flag and wakes the
//! workers idling on kept connections; the acceptor is unblocked with a
//! loopback connection, drops the channel sender, and the workers close
//! their kept connections, drain whatever was already queued and exit.
//! `join` returns only after every thread has exited, so a clean process
//! exit proves no thread leaked — `ci.sh` gates on exactly that.

use crate::http::{parse_request, Request, Response};
use caf_obs::{FlightRecorder, TraceCtx, TraceId};
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and limits for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads draining the accept queue.
    pub workers: usize,
    /// Accept-queue depth: connections waiting for a worker. Connections
    /// beyond it are shed with `503`.
    pub queue: usize,
    /// Per-socket read/write timeout (slow-client bound), and how long a
    /// kept connection may sit idle between requests.
    pub io_timeout: Duration,
    /// Seed for deterministic request IDs: the `seq`-th request the
    /// server answers (shed `503`s included) gets
    /// `TraceId::derive(trace_seed, seq)`, echoed as `X-Request-Id`.
    pub trace_seed: u64,
    /// Where finished request traces land (`/v1/debug/traces` reads the
    /// same recorder). `None` keeps IDs but records no traces.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 64,
            io_timeout: Duration::from_secs(10),
            trace_seed: 0,
            recorder: None,
        }
    }
}

/// Routes one parsed request to a response. Implemented by
/// [`crate::App`] in production and by closures in tests.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `request`.
    fn handle(&self, request: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Triggers graceful shutdown from another thread (or from the worker
/// that served `/quitquitquit`).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Flips the shutdown flag, wakes the workers idling on kept
    /// connections, and unblocks the acceptor with a throwaway loopback
    /// connection. Idempotent.
    pub fn trigger(&self) {
        self.shared.trigger();
    }
}

/// A worker's connection as the acceptor and a shutdown see it.
#[derive(Default)]
struct Slot {
    /// A handle on the worker's connection, to shut its read side.
    conn: Option<TcpStream>,
    /// The worker waits for the next request on a kept connection.
    idle: bool,
    /// The read side was shut down to wake the worker.
    woken: bool,
}

impl Slot {
    /// Wakes the worker if it idles on a kept connection: its wait
    /// returns, it sees `woken`, and it closes the connection without
    /// serving what it may have read.
    fn wake(&mut self) -> bool {
        if !self.idle || self.woken {
            return false;
        }
        if let Some(conn) = &self.conn {
            let _ = conn.shutdown(Shutdown::Read);
        }
        self.woken = true;
        true
    }
}

/// What the acceptor, every worker and every [`ShutdownHandle`] share.
struct Shared {
    handler: Arc<dyn Handler>,
    addr: SocketAddr,
    flag: AtomicBool,
    /// Connections accepted and not yet taken by a worker.
    depth: AtomicU64,
    /// Workers waiting for a connection.
    free: AtomicU64,
    /// One per worker.
    slots: Vec<Mutex<Slot>>,
    /// The request-id sequence: one per answered request.
    next_request: AtomicU64,
    trace_seed: u64,
    recorder: Option<Arc<FlightRecorder>>,
    io_timeout: Duration,
}

impl Shared {
    fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        for slot in &self.slots {
            lock(slot).wake();
        }
        // The acceptor sees the flag and drops the dummy connection
        // unserved.
        let _ = TcpStream::connect(self.addr);
    }

    fn shutting_down(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    fn next_request_id(&self) -> TraceId {
        TraceId::derive(
            self.trace_seed,
            self.next_request.fetch_add(1, Ordering::SeqCst),
        )
    }

    /// Whether a kept connection should give its worker up: the server
    /// is shutting down or another connection is waiting for a worker.
    fn wants_worker(&self) -> bool {
        self.shutting_down() || self.depth.load(Ordering::SeqCst) > 0
    }
}

fn lock(slot: &Mutex<Slot>) -> std::sync::MutexGuard<'_, Slot> {
    // Every update leaves a slot valid, so a panic elsewhere while one
    // was held does not poison its meaning.
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A running server: acceptor + workers, plus the bound address.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and worker threads.
    pub fn start(config: ServeConfig, handler: Arc<dyn Handler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers = config.workers.max(1);
        let (sender, receiver) = sync_channel::<TcpStream>(config.queue.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let shared = Arc::new(Shared {
            handler,
            addr: listener.local_addr()?,
            flag: AtomicBool::new(false),
            depth: AtomicU64::new(0),
            free: AtomicU64::new(0),
            slots: (0..workers).map(|_| Mutex::default()).collect(),
            next_request: AtomicU64::new(0),
            trace_seed: config.trace_seed,
            recorder: config.recorder,
            io_timeout: config.io_timeout,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.shutting_down() {
                            break;
                        }
                        let stream = match stream {
                            Ok(stream) => stream,
                            Err(_) => continue,
                        };
                        // Count the slot before handing the stream over, so a
                        // fast worker's decrement can never race ahead of it.
                        let now = shared.depth.fetch_add(1, Ordering::SeqCst) + 1;
                        caf_obs::gauge("caf.serve.queue.depth", now);
                        match sender.try_send(stream) {
                            // No worker is free: take one from an idle kept
                            // connection. (A worker about to idle checks the
                            // depth under its slot lock, so it cannot miss
                            // this connection either.)
                            Ok(()) if shared.free.load(Ordering::SeqCst) == 0 => {
                                let _ = shared.slots.iter().any(|slot| lock(slot).wake());
                            }
                            Ok(()) => {}
                            Err(TrySendError::Full(stream)) => {
                                shared.depth.fetch_sub(1, Ordering::SeqCst);
                                caf_obs::count("caf.serve.shed", 1);
                                shed(stream, &shared);
                            }
                            Err(TrySendError::Disconnected(_)) => {
                                shared.depth.fetch_sub(1, Ordering::SeqCst);
                                break;
                            }
                        }
                    }
                    // Dropping the sender lets workers drain the queue
                    // and observe the disconnect.
                })
                .expect("spawn acceptor thread")
        };

        let worker_handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || loop {
                        shared.free.fetch_add(1, Ordering::SeqCst);
                        let next = {
                            let receiver = receiver.lock().unwrap();
                            receiver.recv()
                        };
                        shared.free.fetch_sub(1, Ordering::SeqCst);
                        let Ok(stream) = next else {
                            break;
                        };
                        let now = shared.depth.fetch_sub(1, Ordering::SeqCst) - 1;
                        caf_obs::gauge("caf.serve.queue.depth", now);
                        serve_connection(stream, &shared, &shared.slots[i]);
                    })
                    .expect("spawn worker thread")
            })
            .collect();

        Ok(Server {
            shared,
            acceptor,
            workers: worker_handles,
        })
    }

    /// The bound socket address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle that can trigger shutdown from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the acceptor and every worker have exited.
    pub fn join(self) {
        self.acceptor.join().expect("acceptor thread panicked");
        for worker in self.workers {
            worker.join().expect("worker thread panicked");
        }
    }

    /// Triggers shutdown and waits for every thread to exit.
    pub fn shutdown(self) {
        self.shared.trigger();
        self.join();
    }
}

/// Answers a connection the full queue cannot hold with `503` and
/// closes it. The body is written off-thread: a slow client must not
/// stall the single acceptor during overload, which is exactly when
/// fast shedding matters. The thread is detached but bounded by the
/// 1 s write timeout; if spawning fails the connection is simply
/// dropped.
fn shed(mut stream: TcpStream, shared: &Shared) {
    let request_id = shared.next_request_id();
    let recorder = shared.recorder.clone();
    let _ = std::thread::Builder::new()
        .name("serve-shed".to_string())
        .spawn(move || {
            // Shed 503s are always kept (5xx), so overload leaves a
            // trail in the flight recorder.
            let trace = recorder.as_deref().map(|_| TraceCtx::new(request_id));
            if let Some(trace) = &trace {
                trace.annotate("route", "shed");
            }
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = Response::error(503, "server accept queue is full")
                .with_header("X-Request-Id", request_id.to_hex())
                .write_to(&mut stream, true);
            if let (Some(recorder), Some(trace)) = (recorder.as_deref(), &trace) {
                recorder.finish(trace, 503, "serve.request");
            }
        });
}

/// Serves requests on one connection until it should close.
fn serve_connection(stream: TcpStream, shared: &Shared, slot: &Mutex<Slot>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    *lock(slot) = Slot {
        conn: stream.try_clone().ok(),
        ..Slot::default()
    };
    let mut reader = BufReader::new(stream);
    let mut kept = false;
    while next_request_arrives(&mut reader, shared, slot, kept)
        && serve_request(&mut reader, shared)
    {
        kept = true;
    }
    *lock(slot) = Slot::default();
}

/// Waits for the first bytes of the next request; false when the
/// connection should close instead, with those bytes unserved: the
/// client closed it, it sat idle for `io_timeout`, or — once `kept` (it
/// has served a request) — a shutdown or a queued connection needs the
/// worker.
fn next_request_arrives(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    slot: &Mutex<Slot>,
    kept: bool,
) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    if kept {
        let mut slot = lock(slot);
        if shared.wants_worker() {
            return false;
        }
        slot.idle = true;
    }
    let arrived = matches!(reader.fill_buf(), Ok(bytes) if !bytes.is_empty());
    let mut slot = lock(slot);
    slot.idle = false;
    arrived && !slot.woken
}

/// Reads, answers and writes one request; returns whether the
/// connection stays open for the next.
///
/// Every response — parse errors, 405s, panic 500s included — carries
/// `X-Request-Id`. With a recorder present the whole exchange runs
/// under a `serve.request` root span inside a [`TraceCtx`], and the
/// finished trace is filed *before* the response is written, so a
/// client that reads its `X-Request-Id` can immediately find the trace
/// in `/v1/debug/traces`.
fn serve_request(reader: &mut BufReader<TcpStream>, shared: &Shared) -> bool {
    let started = Instant::now();
    let request_id = shared.next_request_id();
    caf_obs::count("caf.serve.requests", 1);
    let trace = shared.recorder.as_ref().map(|_| TraceCtx::new(request_id));
    let (response, client_close) = {
        let _trace_guard = trace.as_ref().map(|ctx| ctx.enter());
        let _root = caf_obs::span("serve.request");
        match parse_request(reader) {
            Ok(request) if matches!(request.method.as_str(), "GET" | "POST") => {
                // A panicking handler must cost the client a 500, not the
                // server a worker thread: an unwound worker never returns
                // to the recv loop, and `Server::join` would panic on it.
                // The app's shared state stays coherent across an unwind
                // (the cache's FlightGuard fails the in-flight entry), so
                // suppressing the UnwindSafe bound is sound here.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    shared.handler.handle(&request)
                }))
                .unwrap_or_else(|_| {
                    caf_obs::count("caf.serve.handler_panics", 1);
                    eprintln!(
                        "caf-serve: handler panicked serving request {}",
                        request_id.to_hex()
                    );
                    Response::error(500, "internal error: handler panicked")
                });
                (response, request.wants_close())
            }
            Ok(request) => (
                Response::error(405, &format!("method {} not supported", request.method)),
                request.wants_close(),
            ),
            // The rest of the stream cannot be framed.
            Err(err) => (Response::error(err.status, &err.message), true),
        }
    };
    if caf_obs::enabled() {
        caf_obs::count(&format!("caf.serve.http.{}", response.status), 1);
    }
    if let (Some(recorder), Some(ctx)) = (shared.recorder.as_deref(), trace.as_ref()) {
        recorder.finish(ctx, response.status, "serve.request");
    }
    let close = client_close || response.shutdown || shared.wants_worker();
    let response = response.with_header("X-Request-Id", request_id.to_hex());
    let written = response.write_to(reader.get_mut(), close);
    caf_obs::observe("caf.serve.request_us", started.elapsed().as_micros() as u64);
    if response.shutdown {
        shared.trigger();
    }
    written.is_ok() && !close
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::sync::mpsc;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|request: &Request| {
            if request.path == "/quitquitquit" {
                let mut resp = Response::text("bye\n");
                resp.shutdown = true;
                resp
            } else {
                Response::text(format!("path={}\n", request.path))
            }
        })
    }

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let addr = server.addr();
        let (status, body) = client::get(addr, "/hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"path=/hello\n");
        let (status, _) = client::get(addr, "/quitquitquit").unwrap();
        assert_eq!(status, 200);
        server.join(); // would hang (and time the test out) on a leak
    }

    #[test]
    fn full_queue_sheds_with_503() {
        // One worker stuck on a slow handler + queue of 1: of two more
        // concurrent connections, exactly one fits the queue slot and
        // exactly one is shed. The invariant is order-free — which probe
        // queues and which sheds depends on accept order, and asserting
        // a particular victim (as this test once did, by polling the
        // global queue-depth gauge) races both the acceptor's
        // increment-before-enqueue and other tests sharing the registry.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let entered_tx = Mutex::new(entered_tx);
        let handler: Arc<dyn Handler> = Arc::new(move |_request: &Request| {
            let _ = entered_tx.lock().unwrap().send(());
            let _ = release_rx.lock().unwrap().recv();
            Response::text("slow\n")
        });
        let config = ServeConfig {
            workers: 1,
            queue: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config, handler).unwrap();
        let addr = server.addr();

        // First request occupies the worker (handshake proves the
        // handler has actually started, so the worker cannot drain the
        // queue slot underneath the probes below).
        let first = std::thread::spawn(move || client::get(addr, "/a").unwrap());
        entered_rx.recv().unwrap();

        // Two concurrent probes race for the single queue slot. The
        // worker is blocked, so only the shed probe can finish before
        // the release — either with the 503 body, or with a connection
        // reset when the shed thread closes the socket before the
        // client drains it. Both prove the shed.
        let (result_tx, result_rx) = mpsc::channel();
        for path in ["/b", "/c"] {
            let tx = result_tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(client::get(addr, path));
            });
        }
        match result_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("one probe must be shed while the worker is blocked")
        {
            Ok((status, body)) => {
                assert_eq!(status, 503);
                assert!(String::from_utf8(body).unwrap().contains("queue is full"));
            }
            Err(err) => assert!(err.contains("read"), "unexpected probe error: {err}"),
        }

        // Unblock the worker: the first request and the queued probe
        // both drain to 200.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert_eq!(first.join().unwrap().0, 200);
        let (status, _) = result_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the queued probe must drain after release")
            .expect("the queued probe must get a clean response");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn responses_carry_deterministic_request_ids() {
        let config = ServeConfig {
            workers: 1, // one request at a time: request order == id order
            trace_seed: 0xCAF_2024,
            ..ServeConfig::default()
        };
        let server = Server::start(config, echo_handler()).unwrap();
        let addr = server.addr();
        let header = |path: &str| {
            let (_, headers, _) = client::get_full(addr, path).unwrap();
            headers
                .iter()
                .find(|(name, _)| name == "x-request-id")
                .map(|(_, value)| value.clone())
                .expect("X-Request-Id on every response")
        };
        // IDs are a pure function of (trace_seed, request counter).
        assert_eq!(header("/a"), TraceId::derive(0xCAF_2024, 0).to_hex());
        assert_eq!(header("/b"), TraceId::derive(0xCAF_2024, 1).to_hex());
        server.shutdown();
    }

    #[test]
    fn traces_land_in_the_flight_recorder_before_the_response() {
        let recorder = Arc::new(FlightRecorder::new(8, u64::MAX));
        let config = ServeConfig {
            workers: 1,
            trace_seed: 7,
            recorder: Some(Arc::clone(&recorder)),
            ..ServeConfig::default()
        };
        let server = Server::start(config, echo_handler()).unwrap();
        let addr = server.addr();
        let (status, _, _) = client::get_full(addr, "/traced").unwrap();
        assert_eq!(status, 200);
        // The response was written after the trace was filed, so the
        // recorder must already hold it.
        let recent = recorder.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].id, TraceId::derive(7, 0));
        assert_eq!(recent[0].status, 200);
        server.shutdown();
    }

    #[test]
    fn external_trigger_stops_an_idle_server() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let handle = server.shutdown_handle();
        handle.trigger();
        handle.trigger(); // idempotent
        server.join();
    }

    #[test]
    fn panicking_handler_returns_500_and_keeps_the_worker_alive() {
        let handler: Arc<dyn Handler> = Arc::new(|request: &Request| {
            if request.path == "/boom" {
                panic!("handler exploded");
            }
            Response::text("ok\n")
        });
        let config = ServeConfig {
            workers: 1, // one worker, so survival is actually exercised
            ..ServeConfig::default()
        };
        let server = Server::start(config, handler).unwrap();
        let addr = server.addr();
        let (status, body) = client::get(addr, "/boom").unwrap();
        assert_eq!(status, 500);
        assert!(String::from_utf8(body).unwrap().contains("panicked"));
        let (status, body) = client::get(addr, "/fine").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
        server.shutdown(); // join would panic if the worker had died
    }

    #[test]
    fn unsupported_methods_are_rejected() {
        let server = Server::start(ServeConfig::default(), echo_handler()).unwrap();
        let addr = server.addr();
        let (status, body) =
            client::request(addr, "PUT /hello HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(status, 405);
        assert!(String::from_utf8(body).unwrap().contains("PUT"));
        // POST reaches the handler (the app layer decides per route).
        let (status, _) = client::request(addr, "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }
}
