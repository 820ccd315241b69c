//! The smallest HTTP/1.1 client the serve phases need: one connection per
//! request, as the server's `Connection: close` transport expects.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one request and returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: response has no status line"))?;
    Ok((status, payload.to_string()))
}

pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    request(addr, "GET", path, "")
}
