//! A minimal HTTP/SSE client for the service plane: enough for the CLI
//! (`mbcr submit/status/cancel/report --connect http://…`), the
//! load-storm bench, and the e2e suites — nothing more.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mbcr_json::Json;

use crate::sse::SseReader;

/// Splits `http://host:port/path` into `(host:port, /path)`. A missing
/// path means `/`. `None` for anything that is not a plain `http://`
/// URL with an explicit port.
#[must_use]
pub fn parse_url(url: &str) -> Option<(String, String)> {
    let rest = url.strip_prefix("http://")?;
    let (addr, path) = match rest.find('/') {
        Some(at) => (&rest[..at], &rest[at..]),
        None => (rest, "/"),
    };
    let (host, port) = addr.rsplit_once(':')?;
    if host.is_empty() || port.is_empty() || !port.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((addr.to_string(), path.to_string()))
}

/// One HTTP response, body fully read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body parsed as JSON (`None` when empty or not JSON).
    #[must_use]
    pub fn json(&self) -> Option<Json> {
        mbcr_json::parse(std::str::from_utf8(&self.body).ok()?).ok()
    }

    /// The `error` field of a JSON error body, or the raw body text.
    #[must_use]
    pub fn error_text(&self) -> String {
        self.json()
            .as_ref()
            .and_then(|doc| doc.get("error"))
            .and_then(Json::as_str)
            .map_or_else(
                || String::from_utf8_lossy(&self.body).into_owned(),
                str::to_string,
            )
    }
}

fn write_request<W: Write>(
    writer: &mut W,
    method: &str,
    addr: &str,
    path: &str,
    body: Option<&Json>,
) -> io::Result<()> {
    let body = body.map(Json::to_compact).unwrap_or_default();
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Parses a response's status line and headers off `reader`, leaving it
/// positioned at the body. Returns `(status, content_length)`.
fn read_response_head<R: BufRead>(reader: &mut R) -> io::Result<(u16, Option<usize>)> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let line = line.trim_end();
    let mut parts = line.splitn(3, ' ');
    let (version, status) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("bad status line '{line}'")));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| bad(format!("bad status code in '{line}'")))?;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            return Ok((status, content_length));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length '{value}'")))?,
                );
            }
        }
    }
}

/// Reads a response body: exactly `content_length` bytes when the head
/// declared a length, else everything up to EOF. The declared length
/// comes from the peer, so it is never allocated up front: `take` bounds
/// the read, the buffer grows only with bytes that actually arrive, and
/// a body shorter than declared is [`io::ErrorKind::UnexpectedEof`].
fn read_body<R: Read>(reader: &mut R, content_length: Option<usize>) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    match content_length {
        Some(length) => {
            let limit = u64::try_from(length).unwrap_or(u64::MAX);
            reader.by_ref().take(limit).read_to_end(&mut body)?;
            if body.len() < length {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "response body ended after {} of {length} declared bytes",
                        body.len()
                    ),
                ));
            }
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    Ok(body)
}

/// Performs one request against `addr` (a `host:port`) and reads the
/// whole response. Bodies are compact JSON; connections are one-shot
/// (`Connection: close`), matching the server.
///
/// # Errors
///
/// Connect/read/write failures and malformed responses.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&Json>) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    write_request(&mut writer, method, addr, path, body)?;
    let mut reader = BufReader::new(stream);
    let (status, content_length) = read_response_head(&mut reader)?;
    let body = read_body(&mut reader, content_length)?;
    Ok(Response { status, body })
}

/// Opens an SSE stream: `GET`s `path`, checks the `200` + event-stream
/// response head, and returns a parser over the live stream. No read
/// timeout — progress events arrive whenever the sweep moves; a dying
/// server surfaces as EOF, which the caller's reconnect loop handles.
///
/// # Errors
///
/// Connect failures, malformed response heads, and non-200 statuses
/// (as [`io::ErrorKind::Other`] carrying the status and error body).
pub fn open_sse(addr: &str, path: &str) -> io::Result<SseReader<BufReader<TcpStream>>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    write_request(&mut writer, "GET", addr, path, None)?;
    let mut reader = BufReader::new(stream);
    let (status, content_length) = read_response_head(&mut reader)?;
    if status != 200 {
        let body = read_body(&mut reader, content_length)?;
        return Err(io::Error::other(format!(
            "HTTP {status}: {}",
            Response { status, body }.error_text()
        )));
    }
    Ok(SseReader::new(reader))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urls_parse_into_address_and_path() {
        assert_eq!(
            parse_url("http://127.0.0.1:4871/v1/sweeps"),
            Some(("127.0.0.1:4871".to_string(), "/v1/sweeps".to_string()))
        );
        assert_eq!(
            parse_url("http://localhost:80"),
            Some(("localhost:80".to_string(), "/".to_string()))
        );
        for bad in [
            "https://127.0.0.1:1/x",
            "127.0.0.1:1/x",
            "http://no-port/x",
            "http://:123/x",
            "http://h:12x3/",
        ] {
            assert_eq!(parse_url(bad), None, "{bad}");
        }
    }

    #[test]
    fn responses_roundtrip_through_the_client_reader() {
        let mut raw = Vec::new();
        crate::respond_json(
            &mut raw,
            201,
            &Json::Obj(vec![("sweep".to_string(), "s000-x".into())]),
        )
        .unwrap();
        let mut reader = io::Cursor::new(raw);
        let (status, length) = read_response_head(&mut reader).unwrap();
        assert_eq!(status, 201);
        let mut body = vec![0u8; length.unwrap()];
        reader.read_exact(&mut body).unwrap();
        let doc = mbcr_json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("sweep").and_then(Json::as_str), Some("s000-x"));
    }

    #[test]
    fn error_text_prefers_the_json_error_field() {
        let with_field = Response {
            status: 404,
            body: b"{\"error\":\"unknown sweep\"}".to_vec(),
        };
        assert_eq!(with_field.error_text(), "unknown sweep");
        let raw = Response {
            status: 500,
            body: b"boom".to_vec(),
        };
        assert_eq!(raw.error_text(), "boom");
    }

    /// Serves one canned response to the first connection on a local
    /// listener, returning its address.
    fn canned_server(response: &'static [u8]) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Drain the request head before answering and closing.
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            stream.write_all(response).unwrap();
        });
        (addr, server)
    }

    #[test]
    fn hostile_content_lengths_are_short_bodies_not_allocations() {
        // Neither length may be reserved before the body arrives: the
        // first overflowed `Vec` capacity, the second aborted on
        // allocation. Both bodies end early, so both reads are torn.
        for head in [
            &b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n{}"[..],
        ] {
            let (addr, server) = canned_server(head);
            let err = request(&addr, "GET", "/v1/sweeps", None).expect_err("short body");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
            server.join().unwrap();
        }
        // The same guard on the SSE path's error body.
        for head in [
            &b"HTTP/1.1 404 Not Found\r\nContent-Length: 18446744073709551615\r\n\r\n{}"[..],
            &b"HTTP/1.1 404 Not Found\r\nContent-Length: 1099511627776\r\n\r\n{}"[..],
        ] {
            let (addr, server) = canned_server(head);
            let err = open_sse(&addr, "/v1/sweeps/x/events").expect_err("short body");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
            server.join().unwrap();
        }
    }

    #[test]
    fn exact_and_unlengthed_bodies_read_whole() {
        let (addr, server) = canned_server(b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}");
        let response = request(&addr, "POST", "/v1/sweeps", None).unwrap();
        assert_eq!(
            (response.status, response.body.as_slice()),
            (201, &b"{}"[..])
        );
        server.join().unwrap();
        let (addr, server) = canned_server(b"HTTP/1.1 200 OK\r\n\r\n{\"a\":1}");
        let response = request(&addr, "GET", "/v1/sweeps", None).unwrap();
        assert_eq!(response.body, b"{\"a\":1}");
        server.join().unwrap();
    }

    #[test]
    fn malformed_response_heads_are_rejected() {
        for raw in [
            &b"NOPE\r\n\r\n"[..],
            &b"HTTP/1.1 abc OK\r\n\r\n"[..],
            &b""[..],
        ] {
            assert!(read_response_head(&mut io::Cursor::new(raw.to_vec())).is_err());
        }
    }
}
