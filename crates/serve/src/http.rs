//! A deliberately small HTTP/1.1 subset: enough to parse the GET and
//! POST requests the serving API accepts and to write deterministic
//! responses, with no external dependencies.
//!
//! Connections are persistent (HTTP/1.1's default): requests on one
//! connection are parsed one after another from the same buffered
//! reader, so pipelined requests are answered in order, and every
//! request — the second and later ones too — is held to the same head
//! and body caps. A response says `Connection: close` only when it is
//! the connection's last. The response *body* for a `/v1/*` endpoint is
//! exactly the artifact file `repro --artifacts` writes.

use std::io::{BufRead, Read, Write};

/// Maximum accepted size of the request head (request line + headers).
/// Anything longer is rejected with `431`.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Maximum accepted request body (`Content-Length`). Anything longer is
/// rejected with `413` before a byte of the body is read.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, decoded path, decoded query pairs, headers,
/// and (for POST) the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET` or `POST` for every supported endpoint).
    pub method: String,
    /// Protocol version from the request line, e.g. `HTTP/1.1`.
    pub version: String,
    /// Percent-decoded path, e.g. `/v1/table2`.
    pub path: String,
    /// Percent-decoded query pairs in request order.
    pub query: Vec<(String, String)>,
    /// Headers as (lowercased name, trimmed value) pairs, in request
    /// order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless the request carried `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The last value for query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The last value for header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .rev()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to close after this
    /// request: `Connection: close`, or HTTP/1.0 without
    /// `Connection: keep-alive`.
    pub fn wants_close(&self) -> bool {
        let says = |token: &str| {
            self.header("connection")
                .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
        };
        says("close") || self.version == "HTTP/1.0" && !says("keep-alive")
    }
}

/// A parse failure, carrying the HTTP status the server should answer
/// with (`400`, `413` or `431`). The bytes after a failed request
/// cannot be framed, so the server closes the connection after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Status code to respond with.
    pub status: u16,
    /// Human-readable reason, echoed in the error body.
    pub message: String,
}

fn bad(message: impl Into<String>) -> ParseError {
    ParseError {
        status: 400,
        message: message.into(),
    }
}

/// Reads and parses one request from `stream`: the head, plus — when
/// the head carries `Content-Length` — a body of exactly that many
/// bytes, bounded by [`MAX_BODY_BYTES`] (`413` beyond it).
pub fn parse_request(stream: &mut impl BufRead) -> Result<Request, ParseError> {
    // `read_line` buffers a whole line before returning, so the size
    // check must bind the reader itself, not run after the fact: a
    // client streaming bytes with no newline would otherwise grow the
    // line buffer without bound. Capping at one byte past the limit
    // means a truncated read is always detected as `total` exceeding
    // `MAX_HEAD_BYTES` below.
    let mut stream = stream.take(MAX_HEAD_BYTES as u64 + 1);
    let mut line = String::new();
    let mut total = 0usize;
    let mut read_line = |stream: &mut dyn BufRead, line: &mut String| -> Result<(), ParseError> {
        line.clear();
        let n = stream
            .read_line(line)
            .map_err(|e| bad(format!("read: {e}")))?;
        if n == 0 {
            return Err(bad("connection closed before a full request"));
        }
        total += n;
        if total > MAX_HEAD_BYTES {
            return Err(ParseError {
                status: 431,
                message: "request head too large".to_string(),
            });
        }
        Ok(())
    };

    read_line(&mut stream, &mut line)?;
    let request_line = line.trim_end_matches(['\r', '\n']).to_string();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad("missing HTTP version"))?
        .to_string();
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(bad(format!("malformed request line: {request_line:?}")));
    }
    if method.is_empty() {
        return Err(bad("empty method"));
    }

    // Collect headers until the blank line; the loop enforces the
    // head-size bound. Names are lowercased so lookups are
    // case-insensitive; lines without a colon are ignored.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        read_line(&mut stream, &mut line)?;
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.trim_end_matches(['\r', '\n']).split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    // The head cap no longer applies: read the body (if declared) from
    // the raw stream, sized and bounded up front so a lying client
    // cannot make the server buffer more than MAX_BODY_BYTES.
    let stream = stream.into_inner();
    let mut body = Vec::new();
    if let Some(value) = headers
        .iter()
        .rev()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str())
    {
        let len: usize = value
            .parse()
            .map_err(|_| bad(format!("invalid Content-Length {value:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(ParseError {
                status: 413,
                message: format!("request body of {len} bytes exceeds {MAX_BODY_BYTES}"),
            });
        }
        body = vec![0u8; len];
        stream
            .read_exact(&mut body)
            .map_err(|e| bad(format!("read body: {e}")))?;
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok(Request {
        method,
        version,
        path,
        query,
        headers,
        body,
    })
}

/// Decodes `%XX` escapes (and, in query components, `+` as space).
fn percent_decode(raw: &str, plus_is_space: bool) -> Result<String, ParseError> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| bad(format!("truncated percent escape in {raw:?}")))?;
                let hex = std::str::from_utf8(hex).map_err(|_| bad("non-ASCII escape"))?;
                let byte = u8::from_str_radix(hex, 16)
                    .map_err(|_| bad(format!("invalid percent escape %{hex}")))?;
                out.push(byte);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| bad(format!("target is not UTF-8: {raw:?}")))
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value), written in order.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// When true, the server initiates graceful shutdown after this
    /// response is written (the `/quitquitquit` path).
    pub shutdown: bool,
}

impl Response {
    /// A `200` JSON response; `body` must already be canonical bytes.
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
            shutdown: false,
        }
    }

    /// A `200` plain-text response.
    pub fn text(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
            shutdown: false,
        }
    }

    /// A `304 Not Modified` response: no body, so the caller must still
    /// attach the entity's `ETag` via [`Response::with_header`].
    pub fn not_modified() -> Response {
        Response {
            status: 304,
            content_type: "application/json",
            headers: Vec::new(),
            body: Vec::new(),
            shutdown: false,
        }
    }

    /// An error response with a one-object JSON body
    /// `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\": ");
        body.push_str(&caf_obs::json::Json::Str(message.to_string()).to_compact());
        body.push_str("}\n");
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
            shutdown: false,
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Serializes the response to `out` (status line, headers, body)
    /// in one write; `close` adds `Connection: close`.
    ///
    /// One write is what keeps a kept connection fast: a head and a body
    /// sent as two small writes leave the body behind Nagle's algorithm
    /// until the client's delayed ACK, tens of milliseconds later.
    pub fn write_to(&self, out: &mut impl Write, close: bool) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(256 + self.body.len());
        write!(
            bytes,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        )?;
        if close {
            bytes.extend_from_slice(b"Connection: close\r\n");
        }
        for (name, value) in &self.headers {
            write!(bytes, "{name}: {value}\r\n")?;
        }
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(&self.body);
        out.write_all(&bytes)?;
        out.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        parse_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_path_query_and_escapes() {
        let req = parse(
            "GET /v1/serviceability?seed=123&isp=AT%26T&note=a+b HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/serviceability");
        assert_eq!(req.param("seed"), Some("123"));
        assert_eq!(req.param("isp"), Some("AT&T"));
        assert_eq!(req.param("note"), Some("a b"));
        assert_eq!(req.param("absent"), None);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.header("absent"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn reads_post_bodies_bounded_by_content_length() {
        let req =
            parse("POST /v1/challenge HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhelloEXTRA")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");

        // A declared body larger than the cap is rejected before any
        // read; a truncated body is a 400.
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(&huge).unwrap_err().status, 413);
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn rejects_malformed_heads() {
        assert_eq!(parse("GARBAGE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("GET /x?b=%zz HTTP/1.1\r\n\r\n").unwrap_err().status,
            400
        );
        assert_eq!(parse("").unwrap_err().status, 400);
        let huge = format!(
            "GET /x HTTP/1.1\r\nA: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(&huge).unwrap_err().status, 431);
    }

    #[test]
    fn endless_line_is_rejected_without_buffering_it() {
        // No newline at all: the reader cap (not line buffering) must
        // stop this at MAX_HEAD_BYTES + 1 bytes and answer 431.
        let endless = "G".repeat(MAX_HEAD_BYTES * 4);
        assert_eq!(parse(&endless).unwrap_err().status, 431);
        let endless_header = format!("GET /x HTTP/1.1\r\nA: {}", "y".repeat(MAX_HEAD_BYTES * 4));
        assert_eq!(parse(&endless_header).unwrap_err().status, 431);
    }

    #[test]
    fn response_bytes_are_exact() {
        let response = Response::json(b"{}\n".to_vec()).with_header("ETag", "\"abc\"".to_string());
        let mut out = Vec::new();
        response.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\nConnection: close\r\nETag: \"abc\"\r\n\r\n{}\n"
        );
        // A kept connection's response is the same bytes without the
        // `Connection` header.
        let mut kept = Vec::new();
        response.write_to(&mut kept, false).unwrap();
        assert_eq!(
            String::from_utf8(kept).unwrap(),
            text.replace("Connection: close\r\n", "")
        );
        let mut err = Vec::new();
        Response::error(503, "queue full")
            .write_to(&mut err, true)
            .unwrap();
        let text = String::from_utf8(err).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.ends_with("{\"error\": \"queue full\"}\n"));
    }

    /// Counts the writes a response takes.
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        let mut writes = Writes(Vec::new());
        Response::text("x".repeat(4096))
            .with_header("ETag", "\"e\"".to_string())
            .write_to(&mut writes, false)
            .unwrap();
        assert_eq!(writes.0.len(), 1);
        assert!(writes.0[0].ends_with(&[b'x'; 4096]));
    }

    #[test]
    fn requests_on_one_reader_parse_in_order_under_the_same_caps() {
        let mut raw =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        raw.extend_from_slice(b"GET /c HTTP/1.1\r\nConnection: close\r\n\r\n");
        raw.extend_from_slice(
            format!(
                "GET /d HTTP/1.1\r\nA: {}\r\n\r\n",
                "y".repeat(MAX_HEAD_BYTES)
            )
            .as_bytes(),
        );
        let mut reader = BufReader::new(&raw[..]);
        let a = parse_request(&mut reader).unwrap();
        assert_eq!((a.path.as_str(), a.wants_close()), ("/a", false));
        let b = parse_request(&mut reader).unwrap();
        assert_eq!((b.path.as_str(), b.body.as_slice()), ("/b", &b"hi"[..]));
        let c = parse_request(&mut reader).unwrap();
        assert_eq!((c.path.as_str(), c.wants_close()), ("/c", true));
        // The head cap binds each request, not only the first.
        assert_eq!(parse_request(&mut reader).unwrap_err().status, 431);
    }

    #[test]
    fn http_1_0_closes_unless_it_asks_to_keep_alive() {
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().wants_close());
        assert!(!parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .wants_close());
        assert!(parse("GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n")
            .unwrap()
            .wants_close());
    }
}
