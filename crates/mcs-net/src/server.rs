//! The MCS web service: every catalog operation exposed as a SOAP method
//! (the Tomcat/Axis deployment of the paper, Figure 4).

use std::sync::Arc;

use mcs::{Mcs, ShardedCatalog};
use soapstack::server::{Handler, SoapDispatcher, TcpServer};
use soapstack::{Request, Response};

use crate::dispatch::execute;
use crate::ops::Op;
use crate::wire::{call_from, reply_el};

/// Register every MCS operation on a dispatcher. Each method decodes its
/// element into a call, runs it through [`execute`] and encodes the
/// reply; faults become SOAP faults.
pub fn register_methods(d: &mut SoapDispatcher, catalog: Arc<ShardedCatalog>) {
    for &op in Op::ALL {
        let catalog = Arc::clone(&catalog);
        d.register(op.name(), move |el| {
            let call = call_from(op, el)?;
            let reply = execute(&catalog, &call.cred, call.scope, call.request)?;
            Ok(reply_el(&reply, catalog.shards()))
        });
    }
}

/// HTTP handler serving SOAP on POST and the service description on GET.
pub struct McsHandler {
    dispatcher: SoapDispatcher,
    wsdl: String,
}

impl Handler for McsHandler {
    fn handle(&self, req: &Request) -> Response {
        if req.method == "GET" {
            return Response::ok("text/xml; charset=utf-8", self.wsdl.clone().into_bytes());
        }
        self.dispatcher.handle(req)
    }
}

/// A running MCS web service.
pub struct McsServer {
    http: TcpServer,
}

impl McsServer {
    /// Expose `mcs` at `http://{bind_addr}/mcs` with `workers` pool
    /// threads (the paper's Tomcat deployment).
    pub fn start(mcs: Arc<Mcs>, bind_addr: &str, workers: usize) -> std::io::Result<McsServer> {
        Self::start_sharded(Arc::new(ShardedCatalog::from_single(mcs)), bind_addr, workers)
    }

    /// Expose a hash-partitioned catalog ([mcs::ShardedCatalog]) over the
    /// same wire surface. With one shard this is identical to [Self::start].
    pub fn start_sharded(
        catalog: Arc<ShardedCatalog>,
        bind_addr: &str,
        workers: usize,
    ) -> std::io::Result<McsServer> {
        let mut dispatcher = SoapDispatcher::new();
        register_methods(&mut dispatcher, catalog);
        let wsdl = crate::wsdl::describe(&dispatcher);
        let handler = Arc::new(McsHandler { dispatcher, wsdl });
        let http = TcpServer::start(bind_addr, handler, workers)?;
        Ok(McsServer { http })
    }

    /// The bound socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.addr()
    }

    /// HTTP-level statistics.
    pub fn stats(&self) -> &soapstack::server::ServerStats {
        &self.http.stats
    }

    /// Stop the server (also happens on drop).
    pub fn stop(&mut self) {
        self.http.stop();
    }
}
