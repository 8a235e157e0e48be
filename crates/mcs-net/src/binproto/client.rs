//! The binary-protocol transport: the generic [`Client`] — same typed
//! methods, same [`NetError`] shapes, same `last_epoch`/`last_shard`
//! echo as [`crate::McsClient`] — over one persistent length-prefixed
//! connection, plus [`Client::send`]/[`Client::recv`], which keep many
//! tagged requests in flight on that connection.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

use mcs::Credential;
use soapstack::xml::XmlError;

use crate::client::{Client, NetError, Result, Transport};
use crate::dispatch::CallScope;
use crate::ops::{Reply, Request, Response, Shape};

use super::frame::*;

/// One established connection: buffered halves of the same socket.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// The binary transport. The connection is established lazily on the
/// first call and then kept for the client's lifetime.
pub struct BinTransport {
    addr: String,
    simulated_rtt: Duration,
    conn: Option<Conn>,
    next_tag: u32,
    /// Tags and result shapes of pipelined requests sent but not yet
    /// answered, in send order — the server answers strictly in this
    /// order.
    inflight: VecDeque<(u32, Shape)>,
    /// True when sent frames are sitting in the write buffer, i.e. the
    /// next receive must flush (and pay the simulated RTT) first.
    pending_flush: bool,
}

/// The MCS client over the binary protocol.
pub type BinMcsClient = Client<BinTransport>;

impl Client<BinTransport> {
    /// Bind a client to an endpoint (`host:port`) and credential. No I/O
    /// happens until the first call.
    pub fn connect(addr: impl Into<String>, cred: Credential) -> BinMcsClient {
        Self::with_rtt(addr, cred, Duration::ZERO)
    }

    /// Like [`Client::<BinTransport>::connect`], with an artificial
    /// per-round-trip latency for WAN experiments. The sleep is paid
    /// once per *wire* round trip, not per request — a pipelined burst of
    /// N requests costs one RTT, which is precisely the effect pipelining
    /// exists to produce.
    pub fn with_rtt(addr: impl Into<String>, cred: Credential, rtt: Duration) -> BinMcsClient {
        let transport = BinTransport {
            addr: addr.into(),
            simulated_rtt: rtt,
            conn: None,
            next_tag: 1,
            inflight: VecDeque::new(),
            pending_flush: false,
        };
        Client::new(transport, cred)
    }

    /// Queue one request without flushing; returns its tag. Responses
    /// come back in send order through [`Client::recv`]. A request too
    /// large for one frame fails with [`NetError::TooLarge`] and leaves
    /// the connection as it was.
    pub fn send(&mut self, req: &Request) -> Result<u32> {
        self.transport.send(&self.cred, self.scope, req)
    }

    /// Take the next pipelined response in send order, flushing the send
    /// buffer first if needed.
    pub fn recv(&mut self) -> Result<Response> {
        let reply = self.transport.recv()?;
        Ok(self.note(reply))
    }

    /// Number of pipelined requests sent but not yet received.
    pub fn inflight(&self) -> usize {
        self.transport.inflight.len()
    }
}

impl Transport for BinTransport {
    /// One synchronous round trip. Retries once on a fresh connection if
    /// the kept-alive socket turned out stale — but never with pipelined
    /// requests in flight, where a blind resend could duplicate work.
    fn call(&mut self, cred: &Credential, scope: CallScope, req: &Request) -> Result<Reply> {
        if !self.inflight.is_empty() {
            return Err(NetError::Frame(format!(
                "cannot issue a synchronous call with {} pipelined request(s) in flight; \
                 drain them with recv first",
                self.inflight.len()
            )));
        }
        let had_conn = self.conn.is_some();
        match self.send(cred, scope, req).and_then(|_| self.recv()) {
            Err(NetError::Frame(_)) if had_conn => {
                // The idle connection may have been reaped; one retry on
                // a fresh one, like the SOAP client's stale-retry.
                self.conn = None;
                self.inflight.clear();
                self.send(cred, scope, req)?;
                self.recv()
            }
            other => other,
        }
    }
}

impl BinTransport {
    fn ensure_conn(&mut self) -> Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(frame_err)?;
            let _ = stream.set_nodelay(true);
            // Sized for a full pipeline window in both directions.
            let reader =
                BufReader::with_capacity(64 * 1024, stream.try_clone().map_err(frame_err)?);
            let mut writer = BufWriter::with_capacity(64 * 1024, stream);
            // Preamble handshake before any frames, both directions.
            write_preamble(&mut writer).map_err(frame_err)?;
            writer.flush().map_err(frame_err)?;
            let mut conn = Conn { reader, writer };
            read_preamble(&mut conn.reader).map_err(frame_err)?;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn send(&mut self, cred: &Credential, scope: CallScope, req: &Request) -> Result<u32> {
        let tag = self.next_tag;
        let body = encode_request(tag, cred, scope, req);
        if body.len() > MAX_FRAME as usize {
            // Refused before any I/O: the connection and the requests in
            // flight on it are untouched.
            return Err(NetError::TooLarge(body.len()));
        }
        let conn = self.ensure_conn()?;
        if let Err(e) = write_frame(&mut conn.writer, &body) {
            self.conn = None;
            self.inflight.clear();
            return Err(frame_err(e));
        }
        self.next_tag = self.next_tag.wrapping_add(1).max(1);
        self.inflight.push_back((tag, req.op().shape()));
        self.pending_flush = true;
        Ok(tag)
    }

    fn recv(&mut self) -> Result<Reply> {
        let (tag, shape) = self
            .inflight
            .pop_front()
            .ok_or_else(|| NetError::Frame("recv with no pipelined request in flight".into()))?;
        let r = self.read_reply(tag, shape);
        if let Err(NetError::Frame(_)) = r {
            // A transport failure or a desynchronized stream: the
            // connection is useless, and every later response on it lost.
            self.conn = None;
            self.inflight.clear();
        }
        r
    }

    /// Read the response frame for `tag`, flushing the send buffer (and
    /// paying the simulated RTT) first if needed: the reply, or the
    /// fault the server answered with.
    fn read_reply(&mut self, tag: u32, shape: Shape) -> Result<Reply> {
        let conn = self.conn.as_mut().ok_or_else(|| NetError::Frame("connection lost".into()))?;
        if std::mem::take(&mut self.pending_flush) {
            conn.writer.flush().map_err(frame_err)?;
            if !self.simulated_rtt.is_zero() {
                std::thread::sleep(self.simulated_rtt);
            }
        }
        let body = read_frame(&mut conn.reader)
            .map_err(frame_err)?
            .ok_or_else(|| NetError::Frame("server closed the connection".into()))?;
        let mut r = Reader::new(&body);
        let got_tag = r.u32().map_err(frame_shape)?;
        if got_tag != tag {
            return Err(NetError::Frame(format!(
                "response tag {got_tag} does not match request tag {tag}"
            )));
        }
        // Same fault code strings as SOAP, so the reconstructed kind is
        // identical across protocols.
        Ok(decode_reply(shape, &mut r).map_err(frame_shape)??)
    }
}

fn frame_err(e: std::io::Error) -> NetError {
    NetError::Frame(e.to_string())
}

/// A response frame that does not decode is the same typed error a
/// malformed SOAP response is.
fn frame_shape(e: FrameError) -> NetError {
    NetError::Shape(XmlError::Shape(e.to_string()))
}
