//! A minimal blocking HTTP/1.1 client — just enough for the
//! integration tests, `serve_bench`, and the CI gate to talk to a
//! local `caf-serve` without external dependencies.
//!
//! Each thread keeps one connection open, to the last address it sent
//! to, and sends its next request to that address on it; replies are
//! framed by `Content-Length`. A kept connection the server has closed
//! meanwhile (idle timeout, shutdown, or a queued connection that
//! needed the worker) answers with no bytes at all, and the request is
//! then sent once more on a fresh connection. The resend never runs a
//! request twice, `POST`s included: the server closes a connection only
//! between requests, and never starts on a request it does not answer.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends `GET path` to `addr` and returns `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    get_full(addr, path).map(|(status, _, body)| (status, body))
}

/// Response headers as (lowercased name, value) pairs.
pub type Headers = Vec<(String, String)>;

/// Like [`get`], but also returns the response headers so callers can
/// inspect `ETag`, `Retry-After`, etc.
pub fn get_full(addr: SocketAddr, path: &str) -> Result<(u16, Headers, Vec<u8>), String> {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: caf-serve\r\n\r\n").as_bytes(),
    )
}

/// Sends a raw request (head, and body if any) and returns
/// `(status, body)`.
pub fn request(addr: SocketAddr, head: &str) -> Result<(u16, Vec<u8>), String> {
    exchange(addr, head.as_bytes()).map(|(status, _, body)| (status, body))
}

thread_local! {
    /// This thread's kept connection and the address it leads to.
    static KEPT: RefCell<Option<(SocketAddr, BufReader<TcpStream>)>> =
        const { RefCell::new(None) };
}

fn connect(addr: SocketAddr) -> Result<BufReader<TcpStream>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(BufReader::new(stream))
}

/// A failed exchange: whether any response byte arrived, and why.
type Failure = (bool, String);

fn exchange(addr: SocketAddr, raw: &[u8]) -> Result<(u16, Headers, Vec<u8>), String> {
    KEPT.with(|kept| {
        let mut kept = kept.borrow_mut();
        let (mut conn, reused) = match kept.take().filter(|(to, _)| *to == addr) {
            Some((_, conn)) => (conn, true),
            None => (connect(addr)?, false),
        };
        let mut reply = send(&mut conn, raw);
        if reused && matches!(reply, Err((false, _))) {
            conn = connect(addr)?;
            reply = send(&mut conn, raw);
        }
        let (status, headers, body, keep) = reply.map_err(|(_, why)| why)?;
        if keep {
            *kept = Some((addr, conn));
        }
        Ok((status, headers, body))
    })
}

/// A reply, and whether its connection can carry the next request.
type Reply = (u16, Headers, Vec<u8>, bool);

fn send(conn: &mut BufReader<TcpStream>, raw: &[u8]) -> Result<Reply, Failure> {
    conn.get_mut()
        .write_all(raw)
        .map_err(|e| (false, format!("write: {e}")))?;
    read_response(conn)
}

/// Reads one response: the head, then a body of `Content-Length`
/// bytes (or, without one, everything up to the end of the stream).
fn read_response(reader: &mut impl BufRead) -> Result<Reply, Failure> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(1..) => read_rest(reader, &line).map_err(|why| (true, why)),
        Ok(0) => Err((false, "read: connection closed before a response".into())),
        Err(e) => Err((!line.is_empty(), format!("read: {e}"))),
    }
}

/// The rest of a response whose status line has arrived.
fn read_rest(reader: &mut impl BufRead, status_line: &str) -> Result<Reply, String> {
    let read = |e: std::io::Error| format!("read: {e}");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line: {:?}", status_line.trim_end()))?;
    let mut headers = Headers::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(read)? == 0 {
            return Err("no header/body separator in response".into());
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let close = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let mut body = Vec::new();
    let framed = match header("content-length") {
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| format!("invalid Content-Length {len:?}"))?;
            body.resize(len, 0);
            reader.read_exact(&mut body).map_err(read)?;
            true
        }
        None => {
            reader.read_to_end(&mut body).map_err(read)?;
            false
        }
    };
    Ok((status, headers, body, framed && !close))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_closed_connection_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        let (status, _, body, _) = read_response(&mut &raw[..]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"abc");
        assert!(read_response(&mut &b"garbage"[..]).is_err());
    }

    #[test]
    fn frames_replies_by_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nETag: \"e\"\r\n\r\nabc\
                    HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\n\r\n\
                    HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno";
        let mut reader = &raw[..];
        let (status, headers, body, keep) = read_response(&mut reader).unwrap();
        assert_eq!((status, body.as_slice(), keep), (200, &b"abc"[..], true));
        assert_eq!(headers[1], ("etag".to_string(), "\"e\"".to_string()));
        let (status, _, body, keep) = read_response(&mut reader).unwrap();
        assert_eq!((status, body.len(), keep), (304, 0, true));
        let (status, _, body, keep) = read_response(&mut reader).unwrap();
        assert_eq!((status, body.as_slice(), keep), (400, &b"no"[..], false));
        // An empty stream is a reply that never came; a cut body is not.
        assert!(matches!(read_response(&mut reader), Err((false, _))));
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc";
        assert!(matches!(read_response(&mut &cut[..]), Err((true, _))));
    }
}
