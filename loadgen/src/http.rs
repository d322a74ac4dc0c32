//! A keep-alive HTTP/1.1 client of the benchmark's own.
//! `kosr_gateway::client::call` opens a connection per call, which would
//! time the gateway's accept loop rather than its request path; this one
//! holds a connection open across requests, reads fixed-length and
//! chunked bodies (the long-poll and `/metrics` pages are chunked), and
//! can still open a fresh `Connection: close` socket on request for the
//! phase that *is* about connection set-up.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response this client will buffer; the gateway's biggest page
/// (`/metrics`) is a few hundred KiB.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

/// A decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body, chunked framing already removed.
    pub body: Vec<u8>,
}

/// Why a byte stream is not (yet) a response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The status line or a header is malformed.
    BadHead(&'static str),
    /// A chunk size line is not hexadecimal.
    BadChunk,
    /// Neither `Content-Length` nor chunked framing delimits the body.
    NoFraming,
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    haystack
        .get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

/// Parses one response from the front of `buf`. `Ok(None)` means the
/// bytes so far are a proper prefix — read more and call again;
/// `Ok(Some((response, used)))` reports how many bytes the response took,
/// so a pipelined successor stays in the buffer.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, ParseError> {
    let Some(head_end) = find(buf, b"\r\n\r\n", 0) else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| ParseError::BadHead("not utf-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.") {
        return Err(ParseError::BadHead("status line"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(ParseError::BadHead("status code"))?;
    let (mut length, mut chunked) = (None, false);
    for line in lines {
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHead("header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| ParseError::BadHead("content-length"))?,
            );
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.to_ascii_lowercase().contains("chunked");
        }
    }
    let body_start = head_end + 4;
    if chunked {
        let mut body = Vec::new();
        let mut at = body_start;
        loop {
            let Some(line_end) = find(buf, b"\r\n", at) else {
                return Ok(None);
            };
            let size_text = std::str::from_utf8(&buf[at..line_end])
                .map_err(|_| ParseError::BadChunk)?
                .split(';')
                .next()
                .unwrap_or("")
                .trim();
            let size = usize::from_str_radix(size_text, 16).map_err(|_| ParseError::BadChunk)?;
            if size > MAX_RESPONSE_BYTES {
                return Err(ParseError::BadChunk);
            }
            let data = line_end + 2;
            if size == 0 {
                // Trailer section: this server sends none, so the
                // terminator is the bare CRLF after the zero chunk.
                return match buf.get(data..data + 2) {
                    Some(b"\r\n") => Ok(Some((Response { status, body }, data + 2))),
                    Some(_) => Err(ParseError::BadChunk),
                    None => Ok(None),
                };
            }
            let Some(chunk) = buf.get(data..data + size + 2) else {
                return Ok(None);
            };
            if &chunk[size..] != b"\r\n" {
                return Err(ParseError::BadChunk);
            }
            body.extend_from_slice(&chunk[..size]);
            at = data + size + 2;
        }
    }
    let length = length.ok_or(ParseError::NoFraming)?;
    match buf.get(body_start..body_start + length) {
        Some(body) => Ok(Some((
            Response {
                status,
                body: body.to_vec(),
            },
            body_start + length,
        ))),
        None => Ok(None),
    }
}

fn invalid(e: ParseError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}"))
}

/// One client connection. Requests are strictly sequential: the next is
/// written only after the previous response was read in full.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    request: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`. `timeout` bounds every read, so a wedged
    /// server fails the request instead of hanging the benchmark.
    pub fn open(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 << 10),
            request: Vec::with_capacity(512),
        })
    }

    /// Sends one request and reads its response. `body` implies a JSON
    /// payload; `keep_alive: false` asks the server to close afterwards.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        keep_alive: bool,
    ) -> io::Result<Response> {
        self.request.clear();
        write!(self.request, "{method} {path} HTTP/1.1\r\nHost: kosr\r\n")?;
        if !keep_alive {
            self.request.extend_from_slice(b"Connection: close\r\n");
        }
        if let Some(body) = body {
            write!(
                self.request,
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )?;
        } else {
            self.request.extend_from_slice(b"\r\n");
        }
        // One write: head and body leave in the same segment.
        self.stream.write_all(&self.request)?;
        loop {
            if let Some((response, used)) = parse_response(&self.buf).map_err(invalid)? {
                self.buf.drain(..used);
                return Ok(response);
            }
            if self.buf.len() > MAX_RESPONSE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response too large",
                ));
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// `POST path` with a JSON body on the open connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.call("POST", path, Some(body), true)
    }

    /// `GET path` on the open connection.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.call("GET", path, None, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(bytes: &[u8]) -> (Response, usize) {
        parse_response(bytes)
            .expect("well-formed")
            .expect("complete")
    }

    #[test]
    fn fixed_length_body_and_leftover_bytes() {
        let wire =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}HTTP/1.1 404";
        let (r, used) = parsed(wire);
        assert_eq!((r.status, r.body.as_slice()), (200, &b"{\"a\":1}"[..]));
        assert_eq!(
            &wire[used..],
            b"HTTP/1.1 404",
            "the successor stays buffered"
        );
    }

    #[test]
    fn every_proper_prefix_asks_for_more() {
        let fixed = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 5\r\nConnection: close\r\n\r\nhello";
        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n6;ext=1\r\npedia \r\n0\r\n\r\n";
        for wire in [&fixed[..], &chunked[..]] {
            for cut in 0..wire.len() {
                assert_eq!(
                    parse_response(&wire[..cut]),
                    Ok(None),
                    "prefix of {cut} bytes"
                );
            }
            assert!(parse_response(wire).unwrap().is_some());
        }
        let (r, used) = parsed(fixed);
        assert_eq!((r.status, used), (503, fixed.len()));
        let (r, used) = parsed(chunked);
        assert_eq!(r.body, b"Wikipedia ");
        assert_eq!(used, chunked.len());
    }

    #[test]
    fn empty_chunked_body_is_a_long_poll_timeout() {
        let (r, _) = parsed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n");
        assert!(r.body.is_empty());
    }

    #[test]
    fn malformed_responses_are_typed_errors() {
        assert_eq!(
            parse_response(b"SPDY/9 200\r\n\r\n"),
            Err(ParseError::BadHead("status line"))
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 abc OK\r\n\r\n"),
            Err(ParseError::BadHead("status code"))
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n"),
            Err(ParseError::BadHead("content-length"))
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\nbody"),
            Err(ParseError::NoFraming)
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"),
            Err(ParseError::BadChunk)
        );
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX"),
            Err(ParseError::BadChunk)
        );
    }

    #[test]
    fn keep_alive_round_trips_against_a_socket() {
        use std::net::TcpListener;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut byte = [0u8; 1];
            // Two requests on one connection, answered in two framings.
            for reply in [
                &b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"[..],
                &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"[..],
            ] {
                while !seen.ends_with(b"\r\n\r\n") {
                    s.read_exact(&mut byte).unwrap();
                    seen.push(byte[0]);
                }
                seen.clear();
                s.write_all(reply).unwrap();
            }
        });
        let mut conn = Conn::open(addr, Duration::from_secs(5)).unwrap();
        assert_eq!(conn.get("/a").unwrap().body, b"ok");
        assert_eq!(conn.get("/b").unwrap().body, b"abc");
        server.join().unwrap();
    }
}
