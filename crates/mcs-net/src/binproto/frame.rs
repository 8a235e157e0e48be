//! Binary frame codec: length-prefixed frames and the compact record
//! encoding both sides of the protocol share (DESIGN.md §7.7).
//!
//! Everything is little-endian. Strings are `u32` length + UTF-8 bytes;
//! options are a presence byte; sequences are a `u32` count. The decoder
//! is a bounds-checked cursor: every length read is validated against
//! the bytes actually remaining **before** any allocation, so a hostile
//! length prefix cannot make the server allocate or block — it just
//! produces a [`FrameError`] (fuzz-tested in `bin_fuzz.rs`).

use std::io::{self, Read, Write};

use mcs::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord,
    LogicalFile, ObjectRef, ObjectType, Permission, UserRecord, View, ViewContents,
};
use relstore::{Date, DateTime, Time, Value};
use soapstack::xml::XmlError;
use soapstack::Fault;

use crate::client::{CacheStatsReport, CatalogInfoReport, DurabilityMode};
use crate::dispatch::{bad_arguments, Call, CallScope};
use crate::ops::{Op, Reply, Request, Response, Shape};

/// Connection preamble: magic + protocol version, echoed by the server.
pub const MAGIC: [u8; 4] = *b"MCSB";
/// Protocol version byte sent (and required) in the preamble.
pub const VERSION: u8 = 1;
/// Hard cap on one frame's length prefix; anything larger is rejected
/// before allocation (the binary twin of soapstack's `MAX_BODY_BYTES`).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Smallest meaningful frame body: a request needs tag(4)+op(1)+flags(1),
/// a response tag(4)+status(1); 5 is the shared floor.
pub const MIN_FRAME: u32 = 5;

/// Request-flags bit: a durability-override byte follows the flags.
pub const FLAG_DURABILITY: u8 = 0b0000_0001;
/// Request-flags bit: run the call with the read cache bypassed.
pub const FLAG_CACHE_BYPASS: u8 = 0b0000_0010;

/// Response status byte: the payload is the op's result.
pub const STATUS_OK: u8 = 0;
/// Response status byte: the payload is `str code` + `str message` — the
/// same structured fault the SOAP front end would have sent.
pub const STATUS_FAULT: u8 = 1;

/// A malformed frame body (bad length, bad tag byte, truncated field…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

fn bad(msg: impl Into<String>) -> FrameError {
    FrameError(msg.into())
}

/// Decode result alias.
pub type Result<T> = std::result::Result<T, FrameError>;

// ---------- frame transport ----------

/// Write one length-prefixed frame. A body over [`MAX_FRAME`] is
/// refused before anything is written, so the stream stays usable.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds the {MAX_FRAME}-byte limit", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Read one length-prefixed frame. `Ok(None)` is a clean close (EOF on a
/// frame boundary); EOF mid-frame or a length prefix outside
/// `[MIN_FRAME, MAX_FRAME]` is an error — the caller must drop the
/// connection, because the stream offset is no longer trustworthy.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len4 = [0u8; 4];
    // Read the first prefix byte separately so EOF *between* frames is a
    // clean close while EOF *inside* a frame stays an error.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    len4[0] = first[0];
    r.read_exact(&mut len4[1..])?;
    let len = u32::from_le_bytes(len4);
    if !(MIN_FRAME..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range [{MIN_FRAME}, {MAX_FRAME}]"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Send the `MCSB` + version preamble.
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION])
}

/// Read and validate the peer's preamble.
pub fn read_preamble(r: &mut impl Read) -> io::Result<()> {
    let mut buf = [0u8; 5];
    r.read_exact(&mut buf)?;
    if buf[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad protocol magic"));
    }
    if buf[4] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported protocol version {}", buf[4]),
        ));
    }
    Ok(())
}

// ---------- encoder primitives ----------

/// Append a `u8`.
pub fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i32`.
pub fn put_i32(b: &mut Vec<u8>, v: i32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(b: &mut Vec<u8>, v: i64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a bool as one byte.
pub fn put_bool(b: &mut Vec<u8>, v: bool) {
    b.push(v as u8);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// Append an optional string (presence byte + string).
pub fn put_opt_str(b: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => put_u8(b, 0),
        Some(s) => {
            put_u8(b, 1);
            put_str(b, s);
        }
    }
}

/// Append an optional `i64`.
pub fn put_opt_i64(b: &mut Vec<u8>, v: Option<i64>) {
    match v {
        None => put_u8(b, 0),
        Some(v) => {
            put_u8(b, 1);
            put_i64(b, v);
        }
    }
}

/// Append a datetime as seconds since the Unix epoch.
pub fn put_datetime(b: &mut Vec<u8>, dt: &DateTime) {
    put_i64(b, dt.seconds_from_epoch());
}

/// Append an optional datetime.
pub fn put_opt_datetime(b: &mut Vec<u8>, dt: &Option<DateTime>) {
    match dt {
        None => put_u8(b, 0),
        Some(dt) => {
            put_u8(b, 1);
            put_datetime(b, dt);
        }
    }
}

// ---------- bounds-checked decoder ----------

/// A bounds-checked cursor over one frame body. Every accessor validates
/// the remaining length first; none panics or over-allocates on hostile
/// input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole frame has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!("truncated: needed {n} bytes, have {}", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("bad bool byte {other}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string. The length is validated
    /// against the remaining bytes before anything is copied.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(bad(format!("string length {len} exceeds {} remaining", self.remaining())));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    /// Read an optional string.
    pub fn opt_str(&mut self) -> Result<Option<String>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(bad(format!("bad option byte {other}"))),
        }
    }

    /// Read an optional `i64`.
    pub fn opt_i64(&mut self) -> Result<Option<i64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            other => Err(bad(format!("bad option byte {other}"))),
        }
    }

    /// Read a datetime (seconds since the Unix epoch).
    pub fn datetime(&mut self) -> Result<DateTime> {
        Ok(DateTime::from_seconds_from_epoch(self.i64()?))
    }

    /// Read an optional datetime.
    pub fn opt_datetime(&mut self) -> Result<Option<DateTime>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.datetime()?)),
            other => Err(bad(format!("bad option byte {other}"))),
        }
    }

    /// Read a sequence count, validated against the remaining bytes (a
    /// count can never exceed one byte per element).
    pub fn seq_len(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(bad(format!("sequence count {n} exceeds {} remaining bytes", self.remaining())));
        }
        Ok(n)
    }

    /// Require the frame to be fully consumed (trailing garbage is an
    /// encoding bug or an attack, not padding).
    pub fn finish(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes", self.remaining())))
        }
    }
}

// ---------- typed values ----------

/// Append a typed [`Value`] (one tag byte + payload).
pub fn put_value(b: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(b, 0),
        Value::Int(i) => {
            put_u8(b, 1);
            put_i64(b, *i);
        }
        Value::Float(x) => {
            put_u8(b, 2);
            put_u64(b, x.to_bits());
        }
        Value::Str(s) => {
            put_u8(b, 3);
            put_str(b, s);
        }
        Value::Bool(x) => {
            put_u8(b, 4);
            put_bool(b, *x);
        }
        Value::Date(d) => {
            put_u8(b, 5);
            put_i32(b, d.year);
            put_u8(b, d.month);
            put_u8(b, d.day);
        }
        Value::Time(t) => {
            put_u8(b, 6);
            put_u8(b, t.hour);
            put_u8(b, t.minute);
            put_u8(b, t.second);
        }
        Value::DateTime(dt) => {
            put_u8(b, 7);
            put_datetime(b, dt);
        }
    }
}

/// Decode a typed [`Value`].
pub fn get_value(r: &mut Reader) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Float(f64::from_bits(r.u64()?)),
        3 => Value::Str(r.str()?.into()),
        4 => Value::Bool(r.bool()?),
        5 => {
            let (y, m, d) = (r.i32()?, r.u8()?, r.u8()?);
            Value::Date(Date::new(y, m, d).map_err(|e| bad(e.to_string()))?)
        }
        6 => {
            let (h, m, s) = (r.u8()?, r.u8()?, r.u8()?);
            Value::Time(Time::new(h, m, s).map_err(|e| bad(e.to_string()))?)
        }
        7 => Value::DateTime(r.datetime()?),
        other => return Err(bad(format!("unknown value tag {other}"))),
    })
}

// ---------- enums ----------

/// Encode an [`AttrType`] as one byte.
pub fn put_attr_type(b: &mut Vec<u8>, t: AttrType) {
    put_u8(
        b,
        match t {
            AttrType::Str => 0,
            AttrType::Int => 1,
            AttrType::Float => 2,
            AttrType::Date => 3,
            AttrType::Time => 4,
            AttrType::DateTime => 5,
        },
    );
}

/// Decode an [`AttrType`].
pub fn get_attr_type(r: &mut Reader) -> Result<AttrType> {
    Ok(match r.u8()? {
        0 => AttrType::Str,
        1 => AttrType::Int,
        2 => AttrType::Float,
        3 => AttrType::Date,
        4 => AttrType::Time,
        5 => AttrType::DateTime,
        other => return Err(bad(format!("unknown attr type {other}"))),
    })
}

/// Encode a [`Permission`] as one byte.
pub fn put_permission(b: &mut Vec<u8>, p: Permission) {
    put_u8(
        b,
        match p {
            Permission::Read => 0,
            Permission::Write => 1,
            Permission::Delete => 2,
            Permission::Admin => 3,
        },
    );
}

/// Decode a [`Permission`].
pub fn get_permission(r: &mut Reader) -> Result<Permission> {
    Ok(match r.u8()? {
        0 => Permission::Read,
        1 => Permission::Write,
        2 => Permission::Delete,
        3 => Permission::Admin,
        other => return Err(bad(format!("unknown permission {other}"))),
    })
}

/// Encode an [`ObjectType`] as one byte.
pub fn put_object_type(b: &mut Vec<u8>, t: ObjectType) {
    put_u8(
        b,
        match t {
            ObjectType::File => 0,
            ObjectType::Collection => 1,
            ObjectType::View => 2,
            ObjectType::Service => 3,
        },
    );
}

/// Decode an [`ObjectType`].
pub fn get_object_type(r: &mut Reader) -> Result<ObjectType> {
    Ok(match r.u8()? {
        0 => ObjectType::File,
        1 => ObjectType::Collection,
        2 => ObjectType::View,
        3 => ObjectType::Service,
        other => return Err(bad(format!("unknown object type {other}"))),
    })
}

/// Encode an [`AttrOp`] as one byte.
pub fn put_attr_op(b: &mut Vec<u8>, op: AttrOp) {
    put_u8(
        b,
        match op {
            AttrOp::Eq => 0,
            AttrOp::Ne => 1,
            AttrOp::Lt => 2,
            AttrOp::Le => 3,
            AttrOp::Gt => 4,
            AttrOp::Ge => 5,
            AttrOp::Like => 6,
        },
    );
}

/// Decode an [`AttrOp`].
pub fn get_attr_op(r: &mut Reader) -> Result<AttrOp> {
    Ok(match r.u8()? {
        0 => AttrOp::Eq,
        1 => AttrOp::Ne,
        2 => AttrOp::Lt,
        3 => AttrOp::Le,
        4 => AttrOp::Gt,
        5 => AttrOp::Ge,
        6 => AttrOp::Like,
        other => return Err(bad(format!("unknown attr op {other}"))),
    })
}

// ---------- records ----------

/// Encode a [`Credential`].
pub fn put_credential(b: &mut Vec<u8>, c: &Credential) {
    put_str(b, &c.dn);
    put_strs(b, &c.groups);
}

/// Decode a [`Credential`].
pub fn get_credential(r: &mut Reader) -> Result<Credential> {
    Ok(Credential { dn: r.str()?, groups: get_strs(r)? })
}

/// Encode an [`ObjectRef`].
pub fn put_objref(b: &mut Vec<u8>, o: &ObjectRef) {
    match o {
        ObjectRef::File(n) => {
            put_u8(b, 0);
            put_str(b, n);
        }
        ObjectRef::FileVersion(n, v) => {
            put_u8(b, 1);
            put_str(b, n);
            put_i64(b, *v);
        }
        ObjectRef::Collection(n) => {
            put_u8(b, 2);
            put_str(b, n);
        }
        ObjectRef::View(n) => {
            put_u8(b, 3);
            put_str(b, n);
        }
        ObjectRef::Service => put_u8(b, 4),
    }
}

/// Decode an [`ObjectRef`].
pub fn get_objref(r: &mut Reader) -> Result<ObjectRef> {
    Ok(match r.u8()? {
        0 => ObjectRef::File(r.str()?),
        1 => {
            let n = r.str()?;
            ObjectRef::FileVersion(n, r.i64()?)
        }
        2 => ObjectRef::Collection(r.str()?),
        3 => ObjectRef::View(r.str()?),
        4 => ObjectRef::Service,
        other => return Err(bad(format!("unknown object kind {other}"))),
    })
}

/// Encode an [`Attribute`].
pub fn put_attribute(b: &mut Vec<u8>, a: &Attribute) {
    put_str(b, &a.name);
    put_value(b, &a.value);
}

/// Decode an [`Attribute`].
pub fn get_attribute(r: &mut Reader) -> Result<Attribute> {
    Ok(Attribute { name: r.str()?, value: get_value(r)? })
}

/// Encode an [`AttrPredicate`].
pub fn put_predicate(b: &mut Vec<u8>, p: &AttrPredicate) {
    put_str(b, &p.name);
    put_attr_op(b, p.op);
    put_value(b, &p.value);
}

/// Decode an [`AttrPredicate`].
pub fn get_predicate(r: &mut Reader) -> Result<AttrPredicate> {
    Ok(AttrPredicate { name: r.str()?, op: get_attr_op(r)?, value: get_value(r)? })
}

/// Encode a [`FileSpec`].
pub fn put_filespec(b: &mut Vec<u8>, s: &FileSpec) {
    put_str(b, &s.name);
    put_opt_i64(b, s.version);
    put_opt_str(b, &s.data_type);
    put_opt_str(b, &s.collection);
    put_opt_str(b, &s.container_id);
    put_opt_str(b, &s.container_service);
    put_opt_str(b, &s.master_copy);
    put_bool(b, s.audit);
    put_seq(b, &s.attributes, put_attribute);
}

/// Decode a [`FileSpec`].
pub fn get_filespec(r: &mut Reader) -> Result<FileSpec> {
    let name = r.str()?;
    let version = r.opt_i64()?;
    let data_type = r.opt_str()?;
    let collection = r.opt_str()?;
    let container_id = r.opt_str()?;
    let container_service = r.opt_str()?;
    let master_copy = r.opt_str()?;
    let audit = r.bool()?;
    let attributes = get_seq(r, get_attribute)?;
    Ok(FileSpec {
        name,
        version,
        data_type,
        collection,
        container_id,
        container_service,
        master_copy,
        audit,
        attributes,
    })
}

/// Encode a [`FileUpdate`].
pub fn put_fileupdate(b: &mut Vec<u8>, u: &FileUpdate) {
    put_opt_str(b, &u.data_type);
    match u.valid {
        None => put_u8(b, 0),
        Some(v) => {
            put_u8(b, 1);
            put_bool(b, v);
        }
    }
    put_opt_str(b, &u.master_copy);
    put_opt_str(b, &u.container_id);
    put_opt_str(b, &u.container_service);
}

/// Decode a [`FileUpdate`].
pub fn get_fileupdate(r: &mut Reader) -> Result<FileUpdate> {
    let data_type = r.opt_str()?;
    let valid = match r.u8()? {
        0 => None,
        1 => Some(r.bool()?),
        other => return Err(bad(format!("bad option byte {other}"))),
    };
    Ok(FileUpdate {
        data_type,
        valid,
        master_copy: r.opt_str()?,
        container_id: r.opt_str()?,
        container_service: r.opt_str()?,
    })
}

/// Encode a [`LogicalFile`].
pub fn put_file(b: &mut Vec<u8>, f: &LogicalFile) {
    put_i64(b, f.id);
    put_str(b, &f.name);
    put_i64(b, f.version);
    put_opt_str(b, &f.data_type);
    put_bool(b, f.valid);
    put_opt_i64(b, f.collection_id);
    put_opt_str(b, &f.container_id);
    put_opt_str(b, &f.container_service);
    put_str(b, &f.creator);
    put_datetime(b, &f.created);
    put_opt_str(b, &f.last_modifier);
    put_opt_datetime(b, &f.last_modified);
    put_opt_str(b, &f.master_copy);
    put_bool(b, f.audit_enabled);
}

/// Decode a [`LogicalFile`].
pub fn get_file(r: &mut Reader) -> Result<LogicalFile> {
    Ok(LogicalFile {
        id: r.i64()?,
        name: r.str()?,
        version: r.i64()?,
        data_type: r.opt_str()?,
        valid: r.bool()?,
        collection_id: r.opt_i64()?,
        container_id: r.opt_str()?,
        container_service: r.opt_str()?,
        creator: r.str()?,
        created: r.datetime()?,
        last_modifier: r.opt_str()?,
        last_modified: r.opt_datetime()?,
        master_copy: r.opt_str()?,
        audit_enabled: r.bool()?,
    })
}

/// Encode a [`Collection`].
pub fn put_collection(b: &mut Vec<u8>, c: &Collection) {
    put_i64(b, c.id);
    put_str(b, &c.name);
    put_str(b, &c.description);
    put_opt_i64(b, c.parent_id);
    put_str(b, &c.creator);
    put_datetime(b, &c.created);
    put_opt_str(b, &c.last_modifier);
    put_opt_datetime(b, &c.last_modified);
    put_bool(b, c.audit_enabled);
}

/// Decode a [`Collection`].
pub fn get_collection(r: &mut Reader) -> Result<Collection> {
    Ok(Collection {
        id: r.i64()?,
        name: r.str()?,
        description: r.str()?,
        parent_id: r.opt_i64()?,
        creator: r.str()?,
        created: r.datetime()?,
        last_modifier: r.opt_str()?,
        last_modified: r.opt_datetime()?,
        audit_enabled: r.bool()?,
    })
}

/// Encode a [`View`].
pub fn put_view(b: &mut Vec<u8>, v: &View) {
    put_i64(b, v.id);
    put_str(b, &v.name);
    put_str(b, &v.description);
    put_str(b, &v.creator);
    put_datetime(b, &v.created);
    put_opt_str(b, &v.last_modifier);
    put_opt_datetime(b, &v.last_modified);
    put_bool(b, v.audit_enabled);
}

/// Decode a [`View`].
pub fn get_view(r: &mut Reader) -> Result<View> {
    Ok(View {
        id: r.i64()?,
        name: r.str()?,
        description: r.str()?,
        creator: r.str()?,
        created: r.datetime()?,
        last_modifier: r.opt_str()?,
        last_modified: r.opt_datetime()?,
        audit_enabled: r.bool()?,
    })
}

/// Encode a sequence: a `u32` count, then each item.
pub fn put_seq<T>(b: &mut Vec<u8>, items: &[T], put: fn(&mut Vec<u8>, &T)) {
    put_u32(b, items.len() as u32);
    for x in items {
        put(b, x);
    }
}

/// Decode a sequence written by [`put_seq`]; the count is validated
/// against the remaining bytes before anything is allocated.
pub fn get_seq<T>(r: &mut Reader, get: fn(&mut Reader) -> Result<T>) -> Result<Vec<T>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

/// Encode (name, version) hit lists — query results and contents files.
pub fn put_hits(b: &mut Vec<u8>, hits: &[(String, i64)]) {
    put_seq(b, hits, |b, (n, v)| {
        put_str(b, n);
        put_i64(b, *v);
    });
}

/// Decode a (name, version) hit list.
pub fn get_hits(r: &mut Reader) -> Result<Vec<(String, i64)>> {
    get_seq(r, |r| Ok((r.str()?, r.i64()?)))
}

/// Encode a string list.
pub fn put_strs(b: &mut Vec<u8>, ss: &[String]) {
    put_seq(b, ss, |b, s| put_str(b, s));
}

/// Decode a string list.
pub fn get_strs(r: &mut Reader) -> Result<Vec<String>> {
    get_seq(r, |r| r.str())
}

/// Encode a `u64` list (epoch vectors).
pub fn put_u64s(b: &mut Vec<u8>, vs: &[u64]) {
    put_seq(b, vs, |b, v| put_u64(b, *v));
}

/// Decode a `u64` list.
pub fn get_u64s(r: &mut Reader) -> Result<Vec<u64>> {
    get_seq(r, |r| r.u64())
}

/// Encode [`CollectionContents`].
pub fn put_collection_contents(b: &mut Vec<u8>, c: &CollectionContents) {
    put_hits(b, &c.files);
    put_strs(b, &c.subcollections);
}

/// Decode [`CollectionContents`].
pub fn get_collection_contents(r: &mut Reader) -> Result<CollectionContents> {
    Ok(CollectionContents { files: get_hits(r)?, subcollections: get_strs(r)? })
}

/// Encode [`ViewContents`].
pub fn put_view_contents(b: &mut Vec<u8>, c: &ViewContents) {
    put_hits(b, &c.files);
    put_strs(b, &c.collections);
    put_strs(b, &c.views);
}

/// Decode [`ViewContents`].
pub fn get_view_contents(r: &mut Reader) -> Result<ViewContents> {
    Ok(ViewContents { files: get_hits(r)?, collections: get_strs(r)?, views: get_strs(r)? })
}

/// Encode an [`Annotation`].
pub fn put_annotation(b: &mut Vec<u8>, a: &Annotation) {
    put_object_type(b, a.object_type);
    put_i64(b, a.object_id);
    put_str(b, &a.text);
    put_str(b, &a.creator);
    put_datetime(b, &a.created);
}

/// Decode an [`Annotation`].
pub fn get_annotation(r: &mut Reader) -> Result<Annotation> {
    Ok(Annotation {
        object_type: get_object_type(r)?,
        object_id: r.i64()?,
        text: r.str()?,
        creator: r.str()?,
        created: r.datetime()?,
    })
}

/// Encode an [`AuditRecord`].
pub fn put_audit(b: &mut Vec<u8>, a: &AuditRecord) {
    put_object_type(b, a.object_type);
    put_i64(b, a.object_id);
    put_str(b, &a.action);
    put_str(b, &a.actor);
    put_datetime(b, &a.at);
    put_str(b, &a.details);
}

/// Decode an [`AuditRecord`].
pub fn get_audit(r: &mut Reader) -> Result<AuditRecord> {
    Ok(AuditRecord {
        object_type: get_object_type(r)?,
        object_id: r.i64()?,
        action: r.str()?,
        actor: r.str()?,
        at: r.datetime()?,
        details: r.str()?,
    })
}

/// Encode a [`HistoryRecord`].
pub fn put_history(b: &mut Vec<u8>, h: &HistoryRecord) {
    put_i64(b, h.file_id);
    put_str(b, &h.description);
    put_str(b, &h.actor);
    put_datetime(b, &h.at);
}

/// Decode a [`HistoryRecord`].
pub fn get_history(r: &mut Reader) -> Result<HistoryRecord> {
    Ok(HistoryRecord {
        file_id: r.i64()?,
        description: r.str()?,
        actor: r.str()?,
        at: r.datetime()?,
    })
}

/// Encode a [`UserRecord`].
pub fn put_user(b: &mut Vec<u8>, u: &UserRecord) {
    put_str(b, &u.dn);
    put_str(b, &u.description);
    put_str(b, &u.institution);
    put_str(b, &u.email);
    put_str(b, &u.phone);
}

/// Decode a [`UserRecord`].
pub fn get_user(r: &mut Reader) -> Result<UserRecord> {
    Ok(UserRecord {
        dn: r.str()?,
        description: r.str()?,
        institution: r.str()?,
        email: r.str()?,
        phone: r.str()?,
    })
}

/// Encode an [`ExternalCatalog`].
pub fn put_extcat(b: &mut Vec<u8>, c: &ExternalCatalog) {
    put_str(b, &c.name);
    put_str(b, &c.catalog_type);
    put_str(b, &c.host);
    put_str(b, &c.ip);
    put_str(b, &c.description);
}

/// Decode an [`ExternalCatalog`].
pub fn get_extcat(r: &mut Reader) -> Result<ExternalCatalog> {
    Ok(ExternalCatalog {
        name: r.str()?,
        catalog_type: r.str()?,
        host: r.str()?,
        ip: r.str()?,
        description: r.str()?,
    })
}

// ---------- requests and replies ----------

/// Encode one request frame body: tag, opcode, flags, the optional
/// durability byte, the credential, then the operation's arguments.
pub fn encode_request(tag: u32, cred: &Credential, scope: CallScope, req: &Request) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    put_u32(&mut b, tag);
    put_u8(&mut b, req.op() as u8);
    let mut flags = 0u8;
    if scope.durability.is_some() {
        flags |= FLAG_DURABILITY;
    }
    if scope.cache_bypass {
        flags |= FLAG_CACHE_BYPASS;
    }
    put_u8(&mut b, flags);
    if let Some(mode) = scope.durability {
        put_u8(&mut b, mode as u8);
    }
    put_credential(&mut b, cred);
    put_request(&mut b, req);
    b
}

fn put_request(b: &mut Vec<u8>, req: &Request) {
    use Request as Q;
    match req {
        Q::Ping | Q::CatalogInfo | Q::SyncNow | Q::CacheStats | Q::ListUsers => {}
        Q::ListExternalCatalogs => {}
        Q::WaitForEpoch { epoch, shard } => {
            put_i64(b, *epoch as i64);
            put_u32(b, *shard as u32);
        }
        Q::CreateFile { spec } => put_filespec(b, spec),
        Q::CreateFiles { specs } => put_seq(b, specs, put_filespec),
        Q::GetFile { name }
        | Q::GetFileVersions { name }
        | Q::InvalidateFile { name }
        | Q::DeleteFile { name }
        | Q::GetCollection { name }
        | Q::DeleteCollection { name }
        | Q::ListCollection { name }
        | Q::GetView { name }
        | Q::DeleteView { name }
        | Q::ListView { name }
        | Q::GetHistory { file: name }
        | Q::GetUser { dn: name } => put_str(b, name),
        Q::GetFileVersion { name, version } | Q::DeleteFileVersion { name, version } => {
            put_str(b, name);
            put_i64(b, *version);
        }
        Q::UpdateFile { name, update } => {
            put_str(b, name);
            put_fileupdate(b, update);
        }
        Q::CreateCollection { name, parent, description } => {
            put_str(b, name);
            put_opt_str(b, parent);
            put_str(b, description);
        }
        Q::AssignCollection { file, collection } => {
            put_str(b, file);
            put_opt_str(b, collection);
        }
        Q::CreateView { name, description } | Q::AddHistory { file: name, description } => {
            put_str(b, name);
            put_str(b, description);
        }
        Q::AddToView { view, member } | Q::RemoveFromView { view, member } => {
            put_str(b, view);
            put_objref(b, member);
        }
        Q::DefineAttribute { name, ty, description } => {
            put_str(b, name);
            put_attr_type(b, *ty);
            put_str(b, description);
        }
        Q::SetAttribute { object, attr } => {
            put_objref(b, object);
            put_attribute(b, attr);
        }
        Q::RemoveAttribute { object, name: text } | Q::Annotate { object, text } => {
            put_objref(b, object);
            put_str(b, text);
        }
        Q::GetAttributes { object }
        | Q::GetAnnotations { object }
        | Q::GetAuditTrail { object } => put_objref(b, object),
        Q::QueryByAttributes { preds } | Q::ExplainQuery { preds } => {
            put_seq(b, preds, put_predicate)
        }
        Q::SetAudit { object, enabled } => {
            put_objref(b, object);
            put_bool(b, *enabled);
        }
        Q::Grant { object, principal, perm } | Q::Revoke { object, principal, perm } => {
            put_objref(b, object);
            put_str(b, principal);
            put_permission(b, *perm);
        }
        Q::RegisterUser { user } => put_user(b, user),
        Q::RegisterExternalCatalog { catalog } => put_extcat(b, catalog),
    }
}

/// A frame-decode failure maps to the same fault a malformed SOAP body
/// gets.
fn bad_frame(e: FrameError) -> Fault {
    bad_arguments(XmlError::Shape(e.to_string()))
}

/// Decode one request frame body into its tag and [`Call`]. The whole
/// frame is decoded — and required fully consumed — before anything
/// executes, so a malformed request can never half-execute; every decode
/// error is a fault for that tag, never a dropped connection.
pub fn decode_request(body: &[u8]) -> (u32, std::result::Result<Call, Fault>) {
    let mut r = Reader::new(body);
    // MIN_FRAME guarantees the tag is present.
    let tag = r.u32().unwrap_or(0);
    (tag, call_from(&mut r))
}

fn call_from(r: &mut Reader) -> std::result::Result<Call, Fault> {
    let opcode = r.u8().map_err(bad_frame)?;
    let flags = r.u8().map_err(bad_frame)?;
    let bad = |msg: String| bad_arguments(XmlError::Shape(msg));
    if flags & !(FLAG_DURABILITY | FLAG_CACHE_BYPASS) != 0 {
        return Err(bad(format!("unknown request flags {flags:#04x}")));
    }
    let durability = if flags & FLAG_DURABILITY != 0 {
        let byte = r.u8().map_err(bad_frame)?;
        let modes = [DurabilityMode::Always, DurabilityMode::Group, DurabilityMode::Async];
        let unknown = || bad(format!("unknown durability mode byte {byte} (expected 0|1|2)"));
        Some(*modes.get(byte as usize).ok_or_else(unknown)?)
    } else {
        None
    };
    let scope = CallScope { durability, cache_bypass: flags & FLAG_CACHE_BYPASS != 0 };
    let op = Op::from_u8(opcode).ok_or_else(|| Fault {
        code: "soap:Client".into(),
        message: format!("no such method `{opcode:#04x}`"),
    })?;
    let cred = get_credential(r).map_err(bad_frame)?;
    let request = request_from(op, r).map_err(bad_frame)?;
    r.finish().map_err(bad_frame)?;
    // The epoch travels as an i64; a negative one wrapped past i64::MAX.
    if let Request::WaitForEpoch { epoch, .. } = request {
        if epoch > i64::MAX as u64 {
            return Err(bad("epoch must be >= 0".into()));
        }
    }
    Ok(Call { cred, scope, request })
}

fn request_from(op: Op, r: &mut Reader) -> Result<Request> {
    use Request as Q;
    Ok(match op {
        Op::Ping => Q::Ping,
        Op::CatalogInfo => Q::CatalogInfo,
        Op::WaitForEpoch => Q::WaitForEpoch { epoch: r.i64()? as u64, shard: r.u32()? as usize },
        Op::SyncNow => Q::SyncNow,
        Op::CacheStats => Q::CacheStats,
        Op::CreateFile => Q::CreateFile { spec: get_filespec(r)? },
        Op::CreateFiles => Q::CreateFiles { specs: get_seq(r, get_filespec)? },
        Op::GetFile => Q::GetFile { name: r.str()? },
        Op::GetFileVersion => Q::GetFileVersion { name: r.str()?, version: r.i64()? },
        Op::GetFileVersions => Q::GetFileVersions { name: r.str()? },
        Op::UpdateFile => Q::UpdateFile { name: r.str()?, update: get_fileupdate(r)? },
        Op::InvalidateFile => Q::InvalidateFile { name: r.str()? },
        Op::DeleteFile => Q::DeleteFile { name: r.str()? },
        Op::DeleteFileVersion => Q::DeleteFileVersion { name: r.str()?, version: r.i64()? },
        Op::CreateCollection => Q::CreateCollection {
            name: r.str()?,
            parent: r.opt_str()?,
            description: r.str()?,
        },
        Op::GetCollection => Q::GetCollection { name: r.str()? },
        Op::DeleteCollection => Q::DeleteCollection { name: r.str()? },
        Op::ListCollection => Q::ListCollection { name: r.str()? },
        Op::AssignCollection => Q::AssignCollection { file: r.str()?, collection: r.opt_str()? },
        Op::CreateView => Q::CreateView { name: r.str()?, description: r.str()? },
        Op::GetView => Q::GetView { name: r.str()? },
        Op::DeleteView => Q::DeleteView { name: r.str()? },
        Op::AddToView => Q::AddToView { view: r.str()?, member: get_objref(r)? },
        Op::RemoveFromView => Q::RemoveFromView { view: r.str()?, member: get_objref(r)? },
        Op::ListView => Q::ListView { name: r.str()? },
        Op::DefineAttribute => Q::DefineAttribute {
            name: r.str()?,
            ty: get_attr_type(r)?,
            description: r.str()?,
        },
        Op::SetAttribute => Q::SetAttribute { object: get_objref(r)?, attr: get_attribute(r)? },
        Op::RemoveAttribute => Q::RemoveAttribute { object: get_objref(r)?, name: r.str()? },
        Op::GetAttributes => Q::GetAttributes { object: get_objref(r)? },
        Op::QueryByAttributes => Q::QueryByAttributes { preds: get_seq(r, get_predicate)? },
        Op::ExplainQuery => Q::ExplainQuery { preds: get_seq(r, get_predicate)? },
        Op::Annotate => Q::Annotate { object: get_objref(r)?, text: r.str()? },
        Op::GetAnnotations => Q::GetAnnotations { object: get_objref(r)? },
        Op::GetAuditTrail => Q::GetAuditTrail { object: get_objref(r)? },
        Op::SetAudit => Q::SetAudit { object: get_objref(r)?, enabled: r.bool()? },
        Op::AddHistory => Q::AddHistory { file: r.str()?, description: r.str()? },
        Op::GetHistory => Q::GetHistory { file: r.str()? },
        Op::Grant => Q::Grant { object: get_objref(r)?, principal: r.str()?, perm: get_permission(r)? },
        Op::Revoke => {
            Q::Revoke { object: get_objref(r)?, principal: r.str()?, perm: get_permission(r)? }
        }
        Op::RegisterUser => Q::RegisterUser { user: get_user(r)? },
        Op::GetUser => Q::GetUser { dn: r.str()? },
        Op::ListUsers => Q::ListUsers,
        Op::RegisterExternalCatalog => Q::RegisterExternalCatalog { catalog: get_extcat(r)? },
        Op::ListExternalCatalogs => Q::ListExternalCatalogs,
    })
}

fn put_response(b: &mut Vec<u8>, resp: &Response) {
    use Response as R;
    match resp {
        R::Unit => {}
        R::Removed(x) => put_bool(b, *x),
        R::File(f) => put_file(b, f),
        R::Files(fs) => put_seq(b, fs, put_file),
        R::Collection(c) => put_collection(b, c),
        R::CollectionContents(c) => put_collection_contents(b, c),
        R::View(v) => put_view(b, v),
        R::ViewContents(c) => put_view_contents(b, c),
        R::Attributes(a) => put_seq(b, a, put_attribute),
        R::Hits(h) => put_hits(b, h),
        R::Plan(steps) => put_strs(b, steps),
        R::Annotations(a) => put_seq(b, a, put_annotation),
        R::AuditTrail(a) => put_seq(b, a, put_audit),
        R::History(h) => put_seq(b, h, put_history),
        R::User(u) => put_user(b, u),
        R::Users(us) => put_seq(b, us, put_user),
        R::ExternalCatalogs(cs) => put_seq(b, cs, put_extcat),
        R::CatalogInfo { report, commit_epochs, durable_epochs } => {
            put_u32(b, report.shards as u32);
            put_str(b, &report.profile);
            put_u64(b, report.files);
            put_bool(b, report.cache_enabled);
            put_u64s(b, commit_epochs);
            put_u64s(b, durable_epochs);
        }
        R::DurableEpoch(e) => put_u64(b, *e),
        R::Synced(epochs) => put_u64s(b, epochs),
        R::CacheStats(s) => {
            put_bool(b, s.enabled);
            put_u64(b, s.hits);
            put_u64(b, s.misses);
            put_u64(b, s.stale);
            put_u64(b, s.evictions);
        }
    }
}

fn get_response(shape: Shape, r: &mut Reader) -> Result<Response> {
    use Response as R;
    Ok(match shape {
        Shape::Unit => R::Unit,
        Shape::Removed => R::Removed(r.bool()?),
        Shape::File => R::File(get_file(r)?),
        Shape::Files => R::Files(get_seq(r, get_file)?),
        Shape::Collection => R::Collection(get_collection(r)?),
        Shape::CollectionContents => R::CollectionContents(get_collection_contents(r)?),
        Shape::View => R::View(get_view(r)?),
        Shape::ViewContents => R::ViewContents(get_view_contents(r)?),
        Shape::Attributes => R::Attributes(get_seq(r, get_attribute)?),
        Shape::Hits => R::Hits(get_hits(r)?),
        Shape::Plan => R::Plan(get_strs(r)?),
        Shape::Annotations => R::Annotations(get_seq(r, get_annotation)?),
        Shape::AuditTrail => R::AuditTrail(get_seq(r, get_audit)?),
        Shape::History => R::History(get_seq(r, get_history)?),
        Shape::User => R::User(get_user(r)?),
        Shape::Users => R::Users(get_seq(r, get_user)?),
        Shape::ExternalCatalogs => R::ExternalCatalogs(get_seq(r, get_extcat)?),
        Shape::CatalogInfo => R::CatalogInfo {
            report: CatalogInfoReport {
                shards: r.u32()? as usize,
                profile: r.str()?,
                files: r.u64()?,
                cache_enabled: r.bool()?,
            },
            commit_epochs: get_u64s(r)?,
            durable_epochs: get_u64s(r)?,
        },
        Shape::DurableEpoch => R::DurableEpoch(r.u64()?),
        Shape::Synced => R::Synced(get_u64s(r)?),
        Shape::CacheStats => R::CacheStats(CacheStatsReport {
            enabled: r.bool()?,
            hits: r.u64()?,
            misses: r.u64()?,
            stale: r.u64()?,
            evictions: r.u64()?,
        }),
    })
}

/// Encode one response frame body for request `tag`: a status byte, then
/// the epoch/shard echo and the result, or the fault's code and message.
/// A result too large for one frame is answered with a fault naming the
/// limit instead, and a fault message too large for one (one echoing a
/// huge name) is cut short, so the connection survives either way.
pub fn encode_reply(tag: u32, reply: &std::result::Result<Reply, Fault>) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, tag);
    match reply {
        Ok(reply) => {
            put_u8(&mut b, STATUS_OK);
            put_u64(&mut b, reply.epoch);
            put_u16(&mut b, reply.shard as u16);
            put_response(&mut b, &reply.response);
            if b.len() > MAX_FRAME as usize {
                let fault = Fault {
                    code: "soap:Server.Internal".into(),
                    message: format!(
                        "response of {} bytes exceeds the {MAX_FRAME}-byte frame limit",
                        b.len()
                    ),
                };
                return encode_reply(tag, &Err(fault));
            }
        }
        Err(fault) => {
            put_u8(&mut b, STATUS_FAULT);
            put_str(&mut b, &fault.code);
            let room = (MAX_FRAME as usize).saturating_sub(b.len() + 4);
            let mut end = fault.message.len().min(room);
            while !fault.message.is_char_boundary(end) {
                end -= 1;
            }
            put_str(&mut b, &fault.message[..end]);
        }
    }
    b
}

/// Decode the part of a response frame body after the tag, for a
/// request whose result has shape `shape`. `Err` is a body that does not
/// decode; `Ok(Err(fault))` is a well-formed fault frame.
pub fn decode_reply(
    shape: Shape,
    r: &mut Reader,
) -> Result<std::result::Result<Reply, Fault>> {
    let reply = match r.u8()? {
        STATUS_OK => {
            let epoch = r.u64()?;
            let shard = r.u16()? as usize;
            Ok(Reply { response: get_response(shape, r)?, epoch, shard })
        }
        STATUS_FAULT => Err(Fault { code: r.str()?, message: r.str()? }),
        other => return Err(bad(format!("unknown response status byte {other}"))),
    };
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_all_types() {
        let dt = DateTime::from_seconds_from_epoch(1_068_854_400);
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::from("hi <&> there"),
            Value::Bool(true),
            Value::Date(Date::new(2003, 11, 15).unwrap()),
            Value::Time(Time::new(8, 30, 0).unwrap()),
            Value::DateTime(dt),
        ] {
            let mut b = Vec::new();
            put_value(&mut b, &v);
            let mut r = Reader::new(&b);
            let back = get_value(&mut r).unwrap();
            r.finish().unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(x)) if a.is_nan() => assert!(x.is_nan()),
                _ => assert_eq!(back, v),
            }
        }
    }

    #[test]
    fn decoder_never_overreads() {
        // Every prefix of a valid record decodes to an error, not a panic.
        let mut b = Vec::new();
        let f = FileSpec::named("file-x").attr("a", 1i64).attr("b", "y");
        put_filespec(&mut b, &f);
        for cut in 0..b.len() {
            let mut r = Reader::new(&b[..cut]);
            assert!(get_filespec(&mut r).is_err(), "prefix of {cut} bytes decoded");
        }
        let mut r = Reader::new(&b);
        assert_eq!(get_filespec(&mut r).unwrap().attributes, f.attributes);
        r.finish().unwrap();
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        // A string claiming u32::MAX bytes in a 10-byte frame.
        let mut b = Vec::new();
        put_u32(&mut b, u32::MAX);
        b.extend_from_slice(b"abcdef");
        assert!(Reader::new(&b).str().is_err());
        // A sequence claiming 2^31 elements.
        let mut b = Vec::new();
        put_u32(&mut b, 1 << 31);
        assert!(Reader::new(&b).seq_len().is_err());
    }
}
