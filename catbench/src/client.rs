//! One closed-loop client: a persistent connection on either wire, and
//! the answer check for every operation it sends.

use mcs::{AttrPredicate, Credential, FileSpec, LogicalFile};
use mcs_net::{BinMcsClient, McsClient};
use soapstack::TransportOpts;
use workload::spec::file_name;

use crate::workloads::{complex_query, Op, Protocol};

/// A catalog client on one persistent connection.
pub enum Client {
    /// Binary protocol, window 1.
    Bin(BinMcsClient),
    /// SOAP over HTTP/1.1 keep-alive.
    Soap(McsClient),
}

impl Client {
    /// A client of `addr` speaking `protocol`, acting as client `n`.
    pub fn connect(protocol: Protocol, addr: &str, n: usize) -> Client {
        let cred = credential(n);
        match protocol {
            Protocol::Bin => Client::Bin(BinMcsClient::connect(addr, cred)),
            Protocol::Soap => Client::Soap(McsClient::with_opts(
                addr,
                cred,
                TransportOpts {
                    keep_alive: true,
                    simulated_rtt: std::time::Duration::ZERO,
                },
            )),
        }
    }

    /// Make this client's reads skip the catalog's read cache (or stop
    /// skipping it).
    pub fn set_cache_bypass(&mut self, bypass: bool) {
        match self {
            Client::Bin(c) => c.set_cache_bypass(bypass),
            Client::Soap(c) => c.set_cache_bypass(bypass),
        }
    }

    fn get_file(&mut self, name: &str) -> Option<LogicalFile> {
        match self {
            Client::Bin(c) => c.get_file(name).ok(),
            Client::Soap(c) => c.get_file(name).ok(),
        }
    }

    fn query(&mut self, preds: &[AttrPredicate]) -> Option<Vec<(String, i64)>> {
        match self {
            Client::Bin(c) => c.query_by_attributes(preds).ok(),
            Client::Soap(c) => c.query_by_attributes(preds).ok(),
        }
    }

    fn create_file(&mut self, spec: &FileSpec) -> Option<LogicalFile> {
        match self {
            Client::Bin(c) => c.create_file(spec).ok(),
            Client::Soap(c) => c.create_file(spec).ok(),
        }
    }

    fn create_files(&mut self, specs: &[FileSpec]) -> Option<Vec<LogicalFile>> {
        match self {
            Client::Bin(c) => c.create_files(specs).ok(),
            Client::Soap(c) => c.create_files(specs).ok(),
        }
    }

    fn delete_file(&mut self, name: &str) -> Option<()> {
        match self {
            Client::Bin(c) => c.delete_file(name).ok(),
            Client::Soap(c) => c.delete_file(name).ok(),
        }
    }

    /// Send `op` and check the answer. A transport error, a fault or a
    /// wrong answer all return `false`.
    pub fn run(&mut self, op: &Op) -> bool {
        match op {
            Op::Simple(i) => {
                let name = file_name(*i);
                self.get_file(&name).is_some_and(|f| f.name == name)
            }
            // Attributes 2 and 3 pin the file index, and added files use
            // indices above every loaded one, so this holds beside
            // concurrent adds.
            Op::Complex(i) => self
                .query(&complex_query(*i))
                .is_some_and(|hits| hits == [(file_name(*i), 1)]),
            Op::Add(spec) => {
                self.create_file(spec).is_some_and(|f| f.name == spec.name)
                    && self.delete_file(&spec.name).is_some()
            }
            Op::Ingest(specs) => self.create_files(specs).is_some_and(|fs| {
                fs.len() == specs.len() && fs.iter().zip(specs).all(|(f, s)| f.name == s.name)
            }),
        }
    }
}

/// Credential of client `n` (the catalog is open to anyone).
pub fn credential(n: usize) -> Credential {
    Credential::new(format!("/O=Grid/OU=catbench/CN=client{n}"))
}
