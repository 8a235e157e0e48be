//! The binary-protocol server: a TCP accept loop feeding per-connection
//! request loops on a worker pool. Each frame is decoded into a
//! [`crate::dispatch::Call`], run by [`crate::dispatch::execute`] — the
//! same execution the SOAP front end uses — and its reply encoded back.
//!
//! One connection is served by one worker at a time and requests are
//! processed strictly in arrival order, which is what makes pipelining
//! safe: a client may have any number of tagged requests in flight and
//! the matching responses come back in exactly that order. Responses are
//! buffered and only flushed when the connection has no further request
//! already readable — so a pipelined burst of N requests costs far fewer
//! syscalls than N request/response round-trips.
//!
//! Error policy (fuzz-tested in `tests/bin_fuzz.rs`):
//! * a malformed **stream** — bad preamble, length prefix outside
//!   `[MIN_FRAME, MAX_FRAME]`, EOF mid-frame — kills the connection
//!   (after an explanatory error frame when the stream position still
//!   allows one), because the frame boundary can no longer be trusted.
//!   The close lingers: the server shuts down its sending half and
//!   drains what the peer still sends, so the kernel does not answer
//!   unread bytes with a reset that would discard the error frame;
//! * a malformed **frame body** — unknown opcode, bad tag bytes,
//!   truncated or trailing payload — answers with a structured fault
//!   frame and the connection keeps serving, exactly like a SOAP fault;
//! * a result too large for one frame is answered with a fault frame
//!   naming the limit, and the connection keeps serving.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mcs::{Mcs, ShardedCatalog};
use soapstack::server::{lingering_close, ServerStats, TcpServer};
use soapstack::Fault;

use crate::dispatch::execute;

use super::frame::*;

/// How long a worker will wait on a half-sent frame before giving up on
/// the connection — the backstop that keeps a stalled or hostile peer
/// from pinning a pool thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A running binary-protocol MCS server; dropping it shuts it down.
pub struct BinServer(TcpServer);

impl BinServer {
    /// Expose `mcs` over the binary protocol at `bind_addr` with
    /// `workers` pool threads.
    pub fn start(mcs: Arc<Mcs>, bind_addr: &str, workers: usize) -> io::Result<BinServer> {
        Self::start_sharded(Arc::new(ShardedCatalog::from_single(mcs)), bind_addr, workers)
    }

    /// Expose a hash-partitioned catalog over the binary protocol. With
    /// one shard this is identical to [`BinServer::start`].
    pub fn start_sharded(
        catalog: Arc<ShardedCatalog>,
        bind_addr: &str,
        workers: usize,
    ) -> io::Result<BinServer> {
        let serve = move |stream, stats: &ServerStats| serve_connection(stream, &catalog, stats);
        TcpServer::serve(bind_addr, "binproto-accept", workers, serve).map(BinServer)
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Service counters (same shape as the HTTP server's, so the shared
    /// `assert_single_connection` test helper applies to both).
    pub fn stats(&self) -> &ServerStats {
        &self.0.stats
    }

    /// Request shutdown and join the accept thread.
    pub fn stop(&mut self) {
        self.0.stop();
    }
}

fn serve_connection(stream: TcpStream, catalog: &ShardedCatalog, stats: &ServerStats) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // Buffers sized for a full pipeline window of requests/responses, so
    // a deep window drains with one read and one write syscall.
    let mut reader = BufReader::with_capacity(
        64 * 1024,
        match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        },
    );
    let mut writer = BufWriter::with_capacity(64 * 1024, stream);
    if serve_frames(&mut reader, &mut writer, catalog, stats).is_err() {
        // The server gave up on a stream the peer may still be writing.
        let _ = writer.flush();
        lingering_close(writer.get_ref());
    }
}

/// Serve requests until the peer closes on a frame boundary (`Ok`) or
/// the stream can no longer be trusted (`Err`).
fn serve_frames(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    catalog: &ShardedCatalog,
    stats: &ServerStats,
) -> io::Result<()> {
    // Preamble handshake: anything but `MCSB` + our version closes the
    // connection before a single frame is parsed.
    read_preamble(reader)?;
    write_preamble(writer)?;
    writer.flush()?;
    loop {
        let body = match read_frame(reader) {
            Ok(Some(b)) => b,
            Ok(None) => return Ok(()), // clean close on a frame boundary
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Hostile length prefix: say why (tag 0 — the request's
                // tag is inside the frame we refused to read), then drop
                // the connection; the stream offset is garbage now.
                let fault =
                    Fault { code: "soap:Client.BadArguments".into(), message: e.to_string() };
                write_frame(writer, &encode_reply(0, &Err(fault)))?;
                return Err(e);
            }
            Err(e) => return Err(e), // EOF mid-frame or a read timeout
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        write_frame(writer, &handle_frame(catalog, &body))?;
        // Pipelining: pay the flush only when no further request is
        // already buffered — a burst of N requests gets its N responses
        // in (usually) one write.
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
}

/// One request frame in, one response frame body out. Never panics on
/// hostile input: every decode error becomes a structured fault frame.
pub fn handle_frame(catalog: &ShardedCatalog, body: &[u8]) -> Vec<u8> {
    let (tag, call) = decode_request(body);
    let reply = call.and_then(|c| execute(catalog, &c.cred, c.scope, c.request));
    encode_reply(tag, &reply)
}
