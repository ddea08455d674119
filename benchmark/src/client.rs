//! A binary-protocol client: one connection, one request in flight — a
//! caller that waits for its reply.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

use sssp_serve::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, SsspRequest,
};

pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small frames; without this the kernel may
        // hold one back waiting to coalesce it.
        stream.set_nodelay(true)?;
        Ok(Conn { stream })
    }

    /// One round trip: encode, send, wait, decode.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let (op, payload) = encode_request(request);
        write_frame(&mut self.stream, op, &payload)?;
        self.stream.flush()?;
        let (rop, rpayload) = read_frame(&mut self.stream, true)?;
        decode_response(rop, &rpayload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The request every workload sends: server-default Δ, implementation
/// and strategy, summary reply unless `full`.
pub fn sssp_request(fingerprint: u64, source: usize, full: bool) -> Request {
    Request::Sssp(SsspRequest {
        fingerprint,
        source,
        delta: None,
        deadline_ms: None,
        epochs: None,
        implementation: None,
        strategy: None,
        full,
    })
}
