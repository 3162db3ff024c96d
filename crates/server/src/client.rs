//! The workspace's one HTTP/1.1 client: `dram-route`'s upstream hop, and
//! what the benches, tests and examples use to talk to `dram-serve`.
//!
//! * [`Request`] serializes a request: method, target, extra headers, a
//!   `content-length` body (or a chunked one, written with
//!   [`write_chunk`]), and `connection: keep-alive` or `close`.
//! * [`read_head`] reads one response head in 4 KiB reads, bounded by
//!   `max_head`, and leaves the over-read body bytes in the caller's
//!   buffer. The router relays bodies from there itself.
//! * [`read_reply`] and [`Connection`] read whole replies: 1xx interim
//!   responses are skipped, a body shorter than its `content-length` is
//!   an error, an unframed body reads to EOF, a `connection: close`
//!   reply is read through to the close, and bytes past one reply are
//!   kept for the next (pipelined) one. [`call`] is a one-shot
//!   `connection: close` exchange.

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{header_has_token, Limits};

/// One request to serialize, built with [`Request::new`],
/// [`Request::get`] or [`Request::post`] and the builder methods.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    method: &'a str,
    target: &'a str,
    headers: Vec<(&'a str, &'a str)>,
    body: &'a [u8],
    chunked: bool,
    keep_alive: bool,
}

impl<'a> Request<'a> {
    /// A keep-alive request without a body.
    #[must_use]
    pub fn new(method: &'a str, target: &'a str) -> Self {
        Self {
            method,
            target,
            headers: Vec::new(),
            body: &[],
            chunked: false,
            keep_alive: true,
        }
    }

    /// `GET target`.
    #[must_use]
    pub fn get(target: &'a str) -> Self {
        Self::new("GET", target)
    }

    /// `POST target` carrying `body`.
    #[must_use]
    pub fn post<B: AsRef<[u8]> + ?Sized>(target: &'a str, body: &'a B) -> Self {
        Self::new("POST", target).body(body)
    }

    /// Adds a header line; [`Request::encode`] adds framing and
    /// `connection` itself.
    #[must_use]
    pub fn header(mut self, name: &'a str, value: &'a str) -> Self {
        self.headers.push((name, value));
        self
    }

    /// Sets the body, framed by `content-length` unless chunked.
    #[must_use]
    pub fn body<B: AsRef<[u8]> + ?Sized>(mut self, body: &'a B) -> Self {
        self.body = body.as_ref();
        self
    }

    /// Announces `transfer-encoding: chunked` and sends no body: the
    /// caller writes it with [`write_chunk`].
    #[must_use]
    pub fn chunked(mut self) -> Self {
        self.chunked = true;
        self
    }

    /// Asks for `connection: close` rather than `keep-alive`.
    #[must_use]
    pub fn close(mut self) -> Self {
        self.keep_alive = false;
        self
    }

    /// The wire bytes: request line, headers, framing, `connection`, a
    /// blank line, then the body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        // Writing into a Vec cannot fail.
        let _ = write!(out, "{} {} HTTP/1.1\r\n", self.method, self.target);
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        if self.chunked {
            out.extend_from_slice(b"transfer-encoding: chunked\r\n");
        } else {
            let _ = write!(out, "content-length: {}\r\n", self.body.len());
        }
        let connection = if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        let _ = write!(out, "connection: {connection}\r\n\r\n");
        if !self.chunked {
            out.extend_from_slice(self.body);
        }
        out
    }
}

/// Writes `payload` as one chunk of a chunked body. An empty payload is
/// the last chunk.
pub fn write_chunk(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write!(w, "{:x}\r\n", payload.len())?;
    w.write_all(payload)?;
    w.write_all(b"\r\n")
}

/// A response: status and headers, and the body once it is read.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Header lines in arrival order: names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty after [`read_head`] alone).
    pub body: Vec<u8>,
}

impl Reply {
    /// The first value of header `name`, in any case.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The declared `content-length`, if any.
    #[must_use]
    pub fn content_length(&self) -> Option<usize> {
        self.header("content-length")?.parse().ok()
    }

    /// Whether the connection can carry another request after the body:
    /// it is length-framed (otherwise only EOF ends it) and the server
    /// did not say `connection: close`.
    #[must_use]
    pub fn reusable(&self) -> bool {
        self.content_length().is_some()
            && !self
                .headers
                .iter()
                .any(|(n, v)| n == "connection" && header_has_token(v, "close"))
    }

    /// The body as text, invalid UTF-8 replaced.
    #[must_use]
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads one response head. `buf` holds bytes already read from
/// `stream`; on success it holds the body bytes read past the head.
/// EOF inside the head, a head over `max_head` bytes and a malformed
/// status or header line are errors.
pub fn read_head(stream: &mut impl Read, buf: &mut Vec<u8>, max_head: usize) -> io::Result<Reply> {
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() > max_head {
            return Err(invalid("response head exceeds max_head"));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    buf.drain(..head_end + 4);
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|status_line| status_line.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines.filter(|line| !line.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Reply {
        status,
        headers,
        body: Vec::new(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads a body of `length` bytes, or to EOF when `None`, starting with
/// the bytes in `carry`. Bytes past the body stay in `carry`. EOF before
/// `length` bytes (a truncated body) is an `UnexpectedEof` error.
pub fn read_body(
    stream: &mut impl Read,
    carry: &mut Vec<u8>,
    length: Option<usize>,
) -> io::Result<Vec<u8>> {
    let mut body = std::mem::take(carry);
    let Some(length) = length else {
        stream.read_to_end(&mut body)?;
        return Ok(body);
    };
    if body.len() >= length {
        *carry = body.split_off(length);
        return Ok(body);
    }
    // The buffer grows only with bytes that arrive, whatever the
    // declared length.
    let missing = (length - body.len()) as u64;
    stream.take(missing).read_to_end(&mut body)?;
    if body.len() < length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated body: {} of {length} bytes", body.len()),
        ));
    }
    Ok(body)
}

/// Reads the next final response whole, skipping 1xx interim ones.
/// `carry` works as in [`read_body`]. A reply that ends the connection
/// is read through to the server's close: the server finishes its own
/// bookkeeping for the exchange (metrics, logs) before it closes, so the
/// caller's next request sees it.
pub fn read_reply(stream: &mut impl Read, carry: &mut Vec<u8>) -> io::Result<Reply> {
    loop {
        let mut reply = read_head(stream, carry, Limits::default().max_head)?;
        if !(100..200).contains(&reply.status) {
            reply.body = read_body(stream, carry, reply.content_length())?;
            if !reply.reusable() {
                // A reset after the body still leaves a complete reply.
                let _ = stream.read_to_end(carry);
            }
            return Ok(reply);
        }
    }
}

/// A client connection: the stream plus the bytes read past the last
/// reply. Raw or pipelined request bytes go through [`Connection::stream`].
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Connection {
    /// Connects to `addr` within `timeout`, which then bounds each read
    /// and write. Requests are written whole, so Nagle is off.
    pub fn open(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            carry: Vec::new(),
        })
    }

    /// Writes `request`.
    pub fn send(&mut self, request: &Request<'_>) -> io::Result<()> {
        self.stream.write_all(&request.encode())
    }

    /// Reads the next response head, interim or final; see [`read_head`].
    pub fn read_head(&mut self) -> io::Result<Reply> {
        read_head(
            &mut self.stream,
            &mut self.carry,
            Limits::default().max_head,
        )
    }

    /// Reads the next final response; see [`read_reply`].
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        read_reply(&mut self.stream, &mut self.carry)
    }

    /// Sends `request` and reads its reply.
    pub fn call(&mut self, request: &Request<'_>) -> io::Result<Reply> {
        self.send(request)?;
        self.read_reply()
    }

    /// Bytes read past the last reply, not yet consumed.
    #[must_use]
    pub fn carry(&self) -> &[u8] {
        &self.carry
    }

    /// The stream, for raw writes and reads.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// A one-shot exchange on a fresh connection: `request` is sent with
/// `connection: close`, and `timeout` bounds the connect and each read
/// and write.
pub fn call(addr: SocketAddr, request: &Request<'_>, timeout: Duration) -> io::Result<Reply> {
    Connection::open(addr, timeout)?.call(&request.clone().close())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `count` replies off one in-memory stream.
    fn replies(mut wire: &[u8], count: usize) -> Vec<io::Result<Reply>> {
        let mut carry = Vec::new();
        (0..count)
            .map(|_| read_reply(&mut wire, &mut carry))
            .collect()
    }

    #[test]
    fn declared_length_longer_than_the_bytes_is_an_error() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\n0123";
        let err = replies(wire, 1).remove(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(err.to_string(), "truncated body: 4 of 10 bytes");
    }

    #[test]
    fn huge_declared_length_is_not_allocated_up_front() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n0123";
        let err = replies(wire, 1).remove(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(
            err.to_string(),
            "truncated body: 4 of 18446744073709551615 bytes"
        );
    }

    #[test]
    fn interim_100_continue_is_skipped() {
        let wire =
            b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 201 Created\r\ncontent-length: 2\r\n\r\nok";
        let reply = replies(wire, 1).remove(0).unwrap();
        assert_eq!((reply.status, reply.text().as_ref()), (201, "ok"));
    }

    #[test]
    fn header_lookup_ignores_case() {
        let wire = b"HTTP/1.1 503 Busy\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n";
        let reply = replies(wire, 1).remove(0).unwrap();
        assert_eq!(reply.headers[0], ("retry-after".into(), "2".into()));
        assert_eq!(reply.header("RETRY-after"), Some("2"));
        assert_eq!(reply.content_length(), Some(0));
    }

    #[test]
    fn pipelined_responses_keep_the_over_read_bytes() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nfirst\
            HTTP/1.1 404 Not Found\r\ncontent-length: 6\r\nconnection: close\r\n\r\nsecond";
        let got: Vec<Reply> = replies(wire, 2).into_iter().map(Result::unwrap).collect();
        assert_eq!(
            (got[0].status, &got[0].body[..], got[0].reusable()),
            (200, &b"first"[..], true)
        );
        assert_eq!(
            (got[1].status, &got[1].body[..], got[1].reusable()),
            (404, &b"second"[..], false)
        );
    }

    #[test]
    fn unframed_close_body_reads_to_eof() {
        let wire = b"HTTP/1.1 200 OK\r\nconnection: close\r\n\r\nall of it";
        let reply = replies(wire, 1).remove(0).unwrap();
        assert!(!reply.reusable(), "only EOF ends an unframed body");
        assert_eq!(reply.body, b"all of it");
    }

    #[test]
    fn requests_encode_their_framing() {
        let wire = Request::post("/v1/evaluate", "{}")
            .header("host", "t")
            .close()
            .encode();
        let want = "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\n\
                    connection: close\r\n\r\n{}";
        assert_eq!(String::from_utf8(wire).unwrap(), want);
        let wire = Request::post("/v1/trace", "").chunked().encode();
        let want = "POST /v1/trace HTTP/1.1\r\ntransfer-encoding: chunked\r\n\
                    connection: keep-alive\r\n\r\n";
        assert_eq!(String::from_utf8(wire).unwrap(), want);
        let mut framed = Vec::new();
        write_chunk(&mut framed, b"0 act 0\n").unwrap();
        write_chunk(&mut framed, b"").unwrap();
        assert_eq!(framed, b"8\r\n0 act 0\n\r\n0\r\n\r\n");
    }
}
