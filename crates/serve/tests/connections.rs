//! The persistent-connection lifecycle over real sockets: requests on
//! one connection are answered in order (pipelined ones too), a client
//! that asks to close gets `Connection: close` and then EOF, an idle
//! kept connection yields its worker to a queued connection and to a
//! shutdown well within a second, and the client resends a request once
//! on a fresh connection when its kept one has gone stale — a retried
//! `POST /v1/challenge` advances the epoch exactly once.

use caf_geo::UsState;
use caf_obs::TraceId;
use caf_serve::{client, App, AppConfig, Handler, Request, Response, ServeConfig, Server};
use caf_synth::challenge::delta_to_json;
use caf_synth::{ChallengeDelta, Correction, SynthConfig, World};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn echo() -> Arc<dyn Handler> {
    Arc::new(|request: &Request| Response::text(format!("path={}\n", request.path)))
}

/// A server whose idle timeout (10 s) never fires in these tests.
fn start(workers: usize) -> Server {
    let config = ServeConfig {
        workers,
        trace_seed: 0xC0,
        ..ServeConfig::default()
    };
    Server::start(config, echo()).expect("bind ephemeral port")
}

fn connect(server: &Server) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    BufReader::new(stream)
}

/// One response off a raw connection: status, lowercased headers, body.
fn read_one(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut headers = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').unwrap();
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let len: usize = header(&headers, "content-length").unwrap().parse().unwrap();
    let mut body = vec![0; len];
    reader.read_exact(&mut body).unwrap();
    (status, headers, String::from_utf8(body).unwrap())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn at_eof(reader: &mut BufReader<TcpStream>) -> bool {
    matches!(reader.read(&mut [0u8; 16]), Ok(0))
}

#[test]
fn requests_on_one_connection_are_answered_in_order() {
    let server = start(2);
    let mut conn = connect(&server);
    for (seq, path) in ["/a", "/b", "/c"].into_iter().enumerate() {
        write!(conn.get_mut(), "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (status, headers, body) = read_one(&mut conn);
        assert_eq!((status, body), (200, format!("path={path}\n")));
        assert_eq!(header(&headers, "connection"), None, "kept open");
        // Request ids follow requests, not connections.
        assert_eq!(
            header(&headers, "x-request-id"),
            Some(TraceId::derive(0xC0, seq as u64).to_hex().as_str())
        );
    }
    // Two requests pipelined in one write come back in order.
    conn.get_mut()
        .write_all(b"GET /d HTTP/1.1\r\n\r\nPOST /e HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi")
        .unwrap();
    assert_eq!(read_one(&mut conn).2, "path=/d\n");
    assert_eq!(read_one(&mut conn).2, "path=/e\n");
    server.shutdown();
}

#[test]
fn connection_close_is_answered_then_closed() {
    let server = start(1);
    let mut conn = connect(&server);
    conn.get_mut()
        .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, headers, _) = read_one(&mut conn);
    assert_eq!((status, header(&headers, "connection")), (200, None));
    let (status, headers, body) = read_one(&mut conn);
    assert_eq!((status, body.as_str()), (200, "path=/b\n"));
    assert_eq!(header(&headers, "connection"), Some("close"));
    assert!(at_eof(&mut conn));
    // A parse error closes the connection too: its framing is lost.
    let mut conn = connect(&server);
    conn.get_mut()
        .write_all(b"GET /a HTTP/1.1\r\n\r\nNONSENSE\r\n\r\n")
        .unwrap();
    assert_eq!(read_one(&mut conn).0, 200);
    let (status, headers, _) = read_one(&mut conn);
    assert_eq!(
        (status, header(&headers, "connection")),
        (400, Some("close"))
    );
    assert!(at_eof(&mut conn));
    server.shutdown();
}

#[test]
fn an_idle_kept_connection_yields_the_only_worker() {
    // The kept connection must give its worker up because a second
    // connection is waiting.
    let server = start(1);
    let mut idle = connect(&server);
    idle.get_mut()
        .write_all(b"GET /a HTTP/1.1\r\n\r\n")
        .unwrap();
    assert_eq!(read_one(&mut idle).0, 200);

    let started = Instant::now();
    let mut second = connect(&server);
    second
        .get_mut()
        .write_all(b"GET /b HTTP/1.1\r\n\r\n")
        .unwrap();
    assert_eq!(read_one(&mut second).2, "path=/b\n");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the queued connection waited {:?}",
        started.elapsed()
    );
    // The idle connection was closed between requests, unanswered
    // requests none.
    assert!(at_eof(&mut idle));
    server.shutdown();
}

#[test]
fn shutdown_does_not_wait_on_an_idle_kept_connection() {
    let server = start(2);
    // The pooled client connection stays open after the reply.
    assert_eq!(client::get(server.addr(), "/a").unwrap().0, 200);
    let mut raw = connect(&server);
    raw.get_mut().write_all(b"GET /b HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_one(&mut raw).0, 200);
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert!(at_eof(&mut raw));
}

#[test]
fn a_stale_kept_connection_is_retried_on_a_fresh_one() {
    // A server that answers one request per connection but never says
    // so: the client keeps each connection and finds it closed on the
    // next request.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        for (i, stream) in listener.incoming().take(3).enumerate() {
            let mut reader = BufReader::new(stream.unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 2 {
                line.clear();
            }
            let body = format!("connection {i}");
            write!(
                reader.get_mut(),
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
        }
    });
    for i in 0..3 {
        let (status, body) = client::get(addr, "/x").unwrap();
        assert_eq!(
            (status, body),
            (200, format!("connection {i}").into_bytes())
        );
    }
    server.join().unwrap();
}

#[test]
fn a_retried_challenge_advances_the_epoch_once() {
    const SEED: u64 = 0xCAF_2024;
    const SCALE: u32 = 2000;
    let app = Arc::new(App::new(AppConfig {
        default_seed: SEED,
        default_scale: SCALE,
        ..AppConfig::default()
    }));
    let server = Server::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Arc::clone(&app) as Arc<dyn Handler>,
    )
    .unwrap();
    let addr = server.addr();
    let probe = World::generate_states(
        SynthConfig {
            seed: SEED,
            scale: SCALE,
        },
        &UsState::study_states(),
    );
    let delta = ChallengeDelta {
        state: probe.states[0].state,
        cbg: 0,
        isp: probe.states[0].geography.cbgs[0].isp,
        correction: Correction::Availability { rate_ppm: 50_000 },
    };
    let body = delta_to_json(&delta) + "\n";
    let post = format!(
        "POST /v1/challenge HTTP/1.1\r\nHost: caf-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let epoch = |reply: Vec<u8>| {
        let text = String::from_utf8(reply).unwrap();
        caf_obs::json::parse(text.trim_end())
            .unwrap()
            .get("epoch")
            .and_then(|e| e.as_u64())
    };
    assert_eq!(epoch(client::get(addr, "/healthz").unwrap().1), Some(0));
    // A second connection makes the only worker give the client's kept
    // connection up; once it is answered, that connection is closed.
    let mut other = TcpStream::connect(addr).unwrap();
    other.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut other = BufReader::new(other);
    assert_eq!(read_one(&mut other).0, 200);
    // The POST goes out on the stale connection, gets no reply, and is
    // sent again on a fresh one (which in turn takes the worker from
    // the other connection).
    let (status, reply) = client::request(addr, &post).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    assert_eq!(epoch(reply), Some(1));
    assert_eq!(epoch(client::get(addr, "/healthz").unwrap().1), Some(1));
    server.shutdown();
}
