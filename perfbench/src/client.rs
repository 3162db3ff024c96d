//! A closed-loop HTTP/1.1 keep-alive client: one request in flight
//! (or one pipelined batch), `content-length` responses, reconnect
//! after `connection: close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Reply read timeout: far above any healthy request, so a wedged
/// server fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One persistent client connection.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    connects: u64,
    server_closes: u64,
}

/// A parsed reply; the body borrows the connection's buffer.
#[derive(Debug)]
pub struct Reply<'a> {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: &'a [u8],
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Status, body length and `connection: close` from a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let text = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| invalid("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("close"));
        }
    }
    let length = length.ok_or_else(|| invalid("response without content-length"))?;
    Ok((status, length, close))
}

impl Conn {
    /// A client for `addr`; connects on first use.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            connects: 0,
            server_closes: 0,
        }
    }

    /// Connections opened so far.
    #[must_use]
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Times the server ended the connection with `connection: close`
    /// (each is followed by a reconnect on the next request).
    #[must_use]
    pub fn server_closes(&self) -> u64 {
        self.server_closes
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            self.connects += 1;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one complete request and reads its reply.
    ///
    /// # Errors
    ///
    /// Socket errors and malformed responses. The connection is dropped
    /// on error, so the next request reconnects.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply<'_>> {
        match self.exchange(request) {
            Ok((status, start, len)) => Ok(Reply {
                status,
                body: &self.buf[start..start + len],
            }),
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Sends `count` complete requests, concatenated in `requests`, in
    /// one write (HTTP/1.1 pipelining) and reads their replies in order.
    ///
    /// # Errors
    ///
    /// Socket errors, malformed responses, a close before the last reply
    /// and bytes after it. The connection is dropped on error.
    pub fn send_pipelined(
        &mut self,
        requests: &[u8],
        count: usize,
    ) -> io::Result<Vec<(u16, Vec<u8>)>> {
        let result = self.pipelined(requests, count);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn pipelined(&mut self, requests: &[u8], count: usize) -> io::Result<Vec<(u16, Vec<u8>)>> {
        let stream = self.stream()?;
        stream.write_all(requests)?;
        let mut buf = vec![0; MIN_BUF];
        let mut filled = 0;
        let mut start = 0;
        let mut replies = Vec::with_capacity(count);
        let mut closed = false;
        while replies.len() < count {
            if closed {
                return Err(invalid("connection closed before the last pipelined reply"));
            }
            let head = buf[start..filled].windows(4).position(|w| w == b"\r\n\r\n");
            if let Some(p) = head {
                let head_end = start + p + 4;
                let (status, length, close) = parse_head(&buf[start..head_end])?;
                if filled >= head_end + length {
                    replies.push((status, buf[head_end..head_end + length].to_vec()));
                    start = head_end + length;
                    closed = close;
                    continue;
                }
            }
            filled = read_more(stream, &mut buf, filled)?;
        }
        if filled != start {
            return Err(invalid("bytes after the last pipelined reply"));
        }
        if closed {
            self.stream = None;
            self.server_closes += 1;
        }
        Ok(replies)
    }

    /// Writes the request, reads one response into `buf`; returns the
    /// status and the body's range.
    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, usize, usize)> {
        let mut buf = std::mem::take(&mut self.buf);
        let result = self.exchange_into(request, &mut buf);
        self.buf = buf;
        result
    }

    fn exchange_into(
        &mut self,
        request: &[u8],
        buf: &mut Vec<u8>,
    ) -> io::Result<(u16, usize, usize)> {
        if buf.len() < MIN_BUF {
            buf.resize(MIN_BUF, 0);
        }
        let stream = self.stream()?;
        stream.write_all(request)?;
        let mut filled: usize = 0;
        let head_end = loop {
            let from = filled.saturating_sub(3);
            filled = read_more(stream, buf, filled)?;
            if let Some(p) = buf[from..filled].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + p + 4;
            }
        };
        let (status, length, close) = parse_head(&buf[..head_end])?;
        while filled < head_end + length {
            filled = read_more(stream, buf, filled)?;
        }
        if filled != head_end + length {
            return Err(invalid("bytes after the response body"));
        }
        if close {
            self.stream = None;
            self.server_closes += 1;
        }
        Ok((status, head_end, length))
    }
}

/// Initial receive buffer; it doubles whenever a response fills it.
const MIN_BUF: usize = 64 * 1024;

/// Reads whatever the socket has into `buf[filled..]`, growing `buf`
/// when full; returns the new fill. EOF is an error because a response
/// is still owed.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>, filled: usize) -> io::Result<usize> {
    if filled == buf.len() {
        buf.resize(buf.len() * 2, 0);
    }
    match stream.read(&mut buf[filled..])? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-response",
        )),
        n => Ok(filled + n),
    }
}
