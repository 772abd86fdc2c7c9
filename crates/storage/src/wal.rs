//! Checksummed, length-prefixed write-ahead log.
//!
//! The WAL is the durability contract's front door: every catalog
//! mutation (table DDL, `CREATE/DROP JOIN` with its guard config) and
//! every table append is encoded as one [`WalRecord`] frame *before* the
//! in-memory structures change. Row payloads reuse the
//! [`fudj_types::wire`] codec, so WAL bytes are directly comparable to
//! the shuffle and checkpoint byte meters.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic "FUDJWAL1" frame*
//! frame  := len:u32le body crc:u32le      -- len = body.len(), crc = crc32(body)
//! body   := seq:u64le kind:u8 payload
//! ```
//!
//! CRC32 (IEEE polynomial) detects every single-bit error and all burst
//! errors up to 32 bits, which is what the property suite in
//! `tests/wal_properties.rs` pins down. Replay ([`replay_wal`]) restores
//! the *committed prefix*:
//!
//! * a frame that runs past EOF, or trailing garbage with no valid frame
//!   after it, is a **torn tail** — dropped (the caller physically
//!   truncates the file to [`WalReplay::valid_len`]);
//! * a mid-file frame whose checksum fails but where a later valid frame
//!   resyncs is **quarantined** — skipped and counted, never decoded.
//!
//! Neither case is ever a panic or a wrong answer.
//!
//! Both directions work in place: [`encode_frame`] writes the body once,
//! behind a length placeholder it patches afterwards, and replay checksums
//! and decodes each frame body where it lies in the segment buffer, through
//! one [`wire::Cursor`]. The checksum is slicing-by-8: eight table lookups
//! fold eight bytes, with output identical to the bytewise definition.

use bytes::{BufMut, BytesMut};
use fudj_types::wire::{self, Cursor};
use fudj_types::{DataType, FudjError, Result, Row};

/// First eight bytes of every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"FUDJWAL1";

/// Upper bound on one frame body; anything larger is implausible framing
/// (corruption masquerading as a length), not a real record.
pub const MAX_FRAME: usize = 1 << 26;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC register after byte `b` followed by `k` zero bytes. Eight lookups,
/// one per table, fold eight input bytes into the register at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) over `bytes` — detects all single-bit flips and any
/// truncation that changes the covered range.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, tail) = bytes.as_chunks::<8>();
    for b in blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][(x >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Data-type codec (Display strings, parsed back on replay).
// ---------------------------------------------------------------------------

/// Parse a [`DataType`] from its `Display` form (`bigint`, `list<point>`,
/// ...). The inverse of `DataType::to_string`, used when replaying table
/// DDL out of the log. `list<…>` nests at most [`wire::MAX_NESTING`] deep.
pub fn parse_data_type(s: &str) -> Result<DataType> {
    let mut inner = s;
    let mut lists = 0;
    while let Some(elem) = inner
        .strip_prefix("list<")
        .and_then(|r| r.strip_suffix('>'))
    {
        if lists == wire::MAX_NESTING {
            return Err(FudjError::Storage(format!(
                "data type in log record nests lists deeper than {}",
                wire::MAX_NESTING
            )));
        }
        inner = elem;
        lists += 1;
    }
    let mut dt = match inner {
        "null" => DataType::Null,
        "boolean" => DataType::Bool,
        "bigint" => DataType::Int64,
        "double" => DataType::Float64,
        "string" => DataType::String,
        "uuid" => DataType::Uuid,
        "datetime" => DataType::DateTime,
        "interval" => DataType::Interval,
        "point" => DataType::Point,
        "polygon" => DataType::Polygon,
        other => {
            return Err(FudjError::Storage(format!(
                "unknown data type {other:?} in log record"
            )))
        }
    };
    for _ in 0..lists {
        dt = DataType::List(Box::new(dt));
    }
    Ok(dt)
}

// ---------------------------------------------------------------------------
// Logged catalog state (plain values — no dependency on fudj-core).
// ---------------------------------------------------------------------------

/// Guard configuration of a registered join, flattened to plain values so
/// the storage layer needs no `fudj-core` dependency. The session bridges
/// this to/from `GuardConfig` (policy round-trips through its `Display`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardSpec {
    /// `UdfPolicy` display form (`failfast`, `quarantine`, ...).
    pub policy: String,
    /// Per-callback budget in simulated milliseconds.
    pub call_budget_ms: u64,
    /// Maximum serialized PPlan size.
    pub max_pplan_bytes: u64,
    /// Maximum buckets one key may land in.
    pub max_buckets_per_key: u64,
    /// Maximum assign fanout per row.
    pub max_assign_fanout: u64,
    /// Contract-check sampling interval.
    pub check_sample: u64,
}

/// Everything needed to re-issue a `CREATE JOIN` on recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinSpec {
    /// Registered join name.
    pub name: String,
    /// Library the class was instantiated from.
    pub library: String,
    /// Join class within the library.
    pub class: String,
    /// Argument types in `DataType` display form.
    pub arg_types: Vec<String>,
    /// Guard knobs active at creation.
    pub guard: GuardSpec,
    /// Spill budget, if one was set.
    pub memory_budget_rows: Option<u64>,
}

/// One logged mutation. Everything the engine must survive a crash with.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Table DDL: schema as `(name, data-type display string)` pairs.
    CreateTable {
        /// Dataset name.
        name: String,
        /// `(field name, data type display string)` per column.
        fields: Vec<(String, String)>,
        /// Primary-key column name.
        primary_key: String,
        /// Partition count.
        partitions: u32,
    },
    /// Table dropped.
    DropTable {
        /// Dataset name.
        name: String,
    },
    /// Rows appended to a table (wire-codec payload).
    Append {
        /// Target dataset.
        table: String,
        /// Appended rows.
        rows: Vec<Row>,
    },
    /// `CREATE JOIN` with its full spec.
    CreateJoin(JoinSpec),
    /// `DROP JOIN`.
    DropJoin {
        /// Join name.
        name: String,
    },
    /// Query journal: a statement entered execution under the durable
    /// query journal. `fingerprint` keys the query across restarts (a
    /// stable hash of the SQL text); `options` are the session knobs
    /// needed to re-plan it identically on resume.
    QuerySubmitted {
        /// Stable statement fingerprint.
        fingerprint: u64,
        /// The statement text, verbatim.
        sql: String,
        /// `(knob, value)` pairs to re-apply before re-planning.
        options: Vec<(String, String)>,
    },
    /// Query journal: a stage boundary of `fingerprint` committed — its
    /// output partitions are durable in the checkpoint tier and the
    /// logical counters at the boundary are `counters`/`phases` (opaque
    /// name/value pairs; the executor owns their meaning).
    StageCommitted {
        /// Statement fingerprint this boundary belongs to.
        fingerprint: u64,
        /// Stage name (`join:partition`, `join:combine`, `agg:shuffle`).
        stage: String,
        /// Flattened logical counters at the boundary.
        counters: Vec<(String, u64)>,
        /// Phase names completed before the boundary, in order.
        phases: Vec<String>,
    },
    /// Query journal: the statement finished (result delivered); its
    /// journal entries and durable checkpoints are dead on replay.
    QueryFinished {
        /// Statement fingerprint.
        fingerprint: u64,
    },
}

const KIND_CREATE_TABLE: u8 = 1;
const KIND_DROP_TABLE: u8 = 2;
const KIND_APPEND: u8 = 3;
const KIND_CREATE_JOIN: u8 = 4;
const KIND_DROP_JOIN: u8 = 5;
const KIND_QUERY_SUBMITTED: u8 = 6;
const KIND_STAGE_COMMITTED: u8 = 7;
const KIND_QUERY_FINISHED: u8 = 8;

// The length-prefixed string and `JoinSpec` encodings below are shared with
// the snapshot codec: a join spec is the same bytes in a `CreateJoin` log
// record and in a snapshot image.

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn put_join_spec(buf: &mut BytesMut, spec: &JoinSpec) {
    put_str(buf, &spec.name);
    put_str(buf, &spec.library);
    put_str(buf, &spec.class);
    buf.put_u32_le(spec.arg_types.len() as u32);
    for t in &spec.arg_types {
        put_str(buf, t);
    }
    put_str(buf, &spec.guard.policy);
    buf.put_u64_le(spec.guard.call_budget_ms);
    buf.put_u64_le(spec.guard.max_pplan_bytes);
    buf.put_u64_le(spec.guard.max_buckets_per_key);
    buf.put_u64_le(spec.guard.max_assign_fanout);
    buf.put_u64_le(spec.guard.check_sample);
    match spec.memory_budget_rows {
        Some(b) => {
            buf.put_u8(1);
            buf.put_u64_le(b);
        }
        None => buf.put_u8(0),
    }
}

pub(crate) fn get_join_spec(cur: &mut Cursor<'_>) -> Result<JoinSpec> {
    let name = cur.str("join name")?.to_owned();
    let library = cur.str("library")?.to_owned();
    let class = cur.str("class")?.to_owned();
    let nargs = cur.u32("arg count")? as usize;
    let mut arg_types = Vec::with_capacity(nargs.min(64));
    for _ in 0..nargs {
        arg_types.push(cur.str("arg type")?.to_owned());
    }
    let policy = cur.str("guard policy")?.to_owned();
    let guard = GuardSpec {
        policy,
        call_budget_ms: cur.u64("guard limits")?,
        max_pplan_bytes: cur.u64("guard limits")?,
        max_buckets_per_key: cur.u64("guard limits")?,
        max_assign_fanout: cur.u64("guard limits")?,
        check_sample: cur.u64("guard limits")?,
    };
    let memory_budget_rows = match cur.u8("memory budget tag")? {
        0 => None,
        1 => Some(cur.u64("memory budget")?),
        other => {
            return Err(FudjError::Wire(format!(
                "bad memory-budget tag {other} in join spec"
            )))
        }
    };
    Ok(JoinSpec {
        name,
        library,
        class,
        arg_types,
        guard,
        memory_budget_rows,
    })
}

impl WalRecord {
    /// Encode the record payload (kind byte + body, no framing).
    fn encode_payload(&self, buf: &mut BytesMut) {
        match self {
            WalRecord::CreateTable {
                name,
                fields,
                primary_key,
                partitions,
            } => {
                buf.put_u8(KIND_CREATE_TABLE);
                put_str(buf, name);
                buf.put_u32_le(fields.len() as u32);
                for (fname, ftype) in fields {
                    put_str(buf, fname);
                    put_str(buf, ftype);
                }
                put_str(buf, primary_key);
                buf.put_u32_le(*partitions);
            }
            WalRecord::DropTable { name } => {
                buf.put_u8(KIND_DROP_TABLE);
                put_str(buf, name);
            }
            WalRecord::Append { table, rows } => {
                buf.put_u8(KIND_APPEND);
                put_str(buf, table);
                buf.put_u32_le(rows.len() as u32);
                for row in rows {
                    wire::encode_row(row, buf);
                }
            }
            WalRecord::CreateJoin(spec) => {
                buf.put_u8(KIND_CREATE_JOIN);
                put_join_spec(buf, spec);
            }
            WalRecord::DropJoin { name } => {
                buf.put_u8(KIND_DROP_JOIN);
                put_str(buf, name);
            }
            WalRecord::QuerySubmitted {
                fingerprint,
                sql,
                options,
            } => {
                buf.put_u8(KIND_QUERY_SUBMITTED);
                buf.put_u64_le(*fingerprint);
                put_str(buf, sql);
                buf.put_u32_le(options.len() as u32);
                for (key, value) in options {
                    put_str(buf, key);
                    put_str(buf, value);
                }
            }
            WalRecord::StageCommitted {
                fingerprint,
                stage,
                counters,
                phases,
            } => {
                buf.put_u8(KIND_STAGE_COMMITTED);
                buf.put_u64_le(*fingerprint);
                put_str(buf, stage);
                buf.put_u32_le(counters.len() as u32);
                for (name, value) in counters {
                    put_str(buf, name);
                    buf.put_u64_le(*value);
                }
                buf.put_u32_le(phases.len() as u32);
                for phase in phases {
                    put_str(buf, phase);
                }
            }
            WalRecord::QueryFinished { fingerprint } => {
                buf.put_u8(KIND_QUERY_FINISHED);
                buf.put_u64_le(*fingerprint);
            }
        }
    }

    /// Decode one record payload (kind byte + body).
    fn decode_payload(cur: &mut Cursor<'_>) -> Result<WalRecord> {
        Ok(match cur.u8("record kind")? {
            KIND_CREATE_TABLE => {
                let name = cur.str("table name")?.to_owned();
                let nfields = cur.u32("field count")? as usize;
                let mut fields = Vec::with_capacity(nfields.min(1024));
                for _ in 0..nfields {
                    let fname = cur.str("field name")?.to_owned();
                    let ftype = cur.str("field type")?.to_owned();
                    fields.push((fname, ftype));
                }
                WalRecord::CreateTable {
                    name,
                    fields,
                    primary_key: cur.str("primary key")?.to_owned(),
                    partitions: cur.u32("partition count")?,
                }
            }
            KIND_DROP_TABLE => WalRecord::DropTable {
                name: cur.str("table name")?.to_owned(),
            },
            KIND_APPEND => {
                let table = cur.str("table name")?.to_owned();
                let nrows = cur.u32("row count")? as usize;
                let mut rows = Vec::new();
                cur.rows(Some(nrows), &mut rows)?;
                WalRecord::Append { table, rows }
            }
            KIND_CREATE_JOIN => WalRecord::CreateJoin(get_join_spec(cur)?),
            KIND_DROP_JOIN => WalRecord::DropJoin {
                name: cur.str("join name")?.to_owned(),
            },
            KIND_QUERY_SUBMITTED => {
                let fingerprint = cur.u64("query fingerprint")?;
                let sql = cur.str("query sql")?.to_owned();
                let nopts = cur.u32("option count")? as usize;
                let mut options = Vec::with_capacity(nopts.min(64));
                for _ in 0..nopts {
                    let key = cur.str("option key")?.to_owned();
                    let value = cur.str("option value")?.to_owned();
                    options.push((key, value));
                }
                WalRecord::QuerySubmitted {
                    fingerprint,
                    sql,
                    options,
                }
            }
            KIND_STAGE_COMMITTED => {
                let fingerprint = cur.u64("query fingerprint")?;
                let stage = cur.str("stage name")?.to_owned();
                let ncounters = cur.u32("counter count")? as usize;
                let mut counters = Vec::with_capacity(ncounters.min(256));
                for _ in 0..ncounters {
                    let name = cur.str("counter name")?.to_owned();
                    counters.push((name, cur.u64("counter value")?));
                }
                let nphases = cur.u32("phase count")? as usize;
                let mut phases = Vec::with_capacity(nphases.min(64));
                for _ in 0..nphases {
                    phases.push(cur.str("phase name")?.to_owned());
                }
                WalRecord::StageCommitted {
                    fingerprint,
                    stage,
                    counters,
                    phases,
                }
            }
            KIND_QUERY_FINISHED => WalRecord::QueryFinished {
                fingerprint: cur.u64("query fingerprint")?,
            },
            other => {
                return Err(FudjError::Wire(format!("unknown log record kind {other}")));
            }
        })
    }
}

/// Encode one framed record: `len | seq ++ kind ++ payload | crc`. The
/// body is written once, straight into the frame, behind a length
/// placeholder patched when it is complete.
pub fn encode_frame(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(64);
    out.put_u32_le(0);
    out.put_u64_le(seq);
    record.encode_payload(&mut out);
    let len = out.len() - 4;
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[4..]);
    out.put_u32_le(crc);
    out.into()
}

/// Outcome of replaying one WAL segment's bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WalReplay {
    /// Decoded `(seq, record)` pairs of the committed prefix, in order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset just past the last valid frame — the length the file
    /// should be truncated to when `torn_tail` is set.
    pub valid_len: u64,
    /// A trailing partial/corrupt region was dropped.
    pub torn_tail: bool,
    /// Mid-file frames whose checksum failed but where a later valid
    /// frame resynced the scan (skipped, counted, never decoded).
    pub quarantined: u64,
}

/// The body of the plausible, checksum-valid frame starting at `off`, if
/// there is one.
fn frame_at(bytes: &[u8], off: usize) -> Option<&[u8]> {
    let (len, rest) = bytes[off..].split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    if !(9..=MAX_FRAME).contains(&len) || rest.len() < len + 4 {
        return None;
    }
    let (body, crc) = rest.split_at(len);
    (crc32(body).to_le_bytes() == crc[..4]).then_some(body)
}

/// Replay one segment's bytes back into records, restoring the committed
/// prefix and classifying everything else as torn tail or quarantined
/// corruption (see module docs). Never panics on any input.
pub fn replay_wal(bytes: &[u8]) -> WalReplay {
    let mut out = WalReplay::default();
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Header torn or corrupt: nothing is trustworthy. An empty or
        // short file is a torn header write; a wrong magic is corruption.
        out.torn_tail = true;
        if bytes.len() >= WAL_MAGIC.len() {
            out.quarantined = 1;
        }
        return out;
    }
    let mut off = WAL_MAGIC.len();
    out.valid_len = off as u64;
    while off < bytes.len() {
        match frame_at(bytes, off) {
            Some(body) => {
                // A frame body is at least 9 bytes, so the seq is there.
                let mut cur = Cursor::new(body);
                match cur
                    .u64("sequence number")
                    .and_then(|seq| Ok((seq, WalRecord::decode_payload(&mut cur)?)))
                {
                    Ok(record) => out.records.push(record),
                    // Checksum valid but undecodable (e.g. a record kind
                    // from a future version): quarantine, keep scanning.
                    Err(_) => out.quarantined += 1,
                }
                off += 4 + body.len() + 4;
                out.valid_len = off as u64;
            }
            None => {
                // No valid frame here. Resync: if a valid frame starts
                // anywhere later, this region is mid-file corruption to
                // quarantine; otherwise it is the torn tail.
                match ((off + 1)..bytes.len()).find(|&o| frame_at(bytes, o).is_some()) {
                    Some(resync) => {
                        out.quarantined += 1;
                        off = resync;
                    }
                    None => {
                        out.torn_tail = true;
                        break;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_types::Value;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "parks".into(),
                fields: vec![
                    ("id".into(), "bigint".into()),
                    ("loc".into(), "point".into()),
                ],
                primary_key: "id".into(),
                partitions: 4,
            },
            WalRecord::Append {
                table: "parks".into(),
                rows: vec![
                    Row::new(vec![Value::Int64(1), Value::str("a")]),
                    Row::new(vec![Value::Int64(2), Value::Null]),
                ],
            },
            WalRecord::CreateJoin(JoinSpec {
                name: "near".into(),
                library: "spatial".into(),
                class: "distance".into(),
                arg_types: vec!["point".into(), "point".into(), "double".into()],
                guard: GuardSpec {
                    policy: "quarantine".into(),
                    call_budget_ms: 100,
                    max_pplan_bytes: 1 << 20,
                    max_buckets_per_key: 64,
                    max_assign_fanout: 32,
                    check_sample: 7,
                },
                memory_budget_rows: Some(5000),
            }),
            WalRecord::DropJoin {
                name: "near".into(),
            },
            WalRecord::DropTable {
                name: "parks".into(),
            },
            WalRecord::QuerySubmitted {
                fingerprint: 0xfeed_beef_dead_cafe,
                sql: "SELECT COUNT(*) FROM parks p".into(),
                options: vec![
                    ("exec_mode".into(), "columnar".into()),
                    ("memory_budget_rows".into(), "64".into()),
                ],
            },
            WalRecord::StageCommitted {
                fingerprint: 0xfeed_beef_dead_cafe,
                stage: "join:combine".into(),
                counters: vec![
                    ("rows_shuffled".into(), 123),
                    ("bytes_shuffled".into(), 456),
                ],
                phases: vec!["summarize".into(), "divide".into()],
            },
            WalRecord::QueryFinished {
                fingerprint: 0xfeed_beef_dead_cafe,
            },
        ]
    }

    fn segment(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64 + 1, rec));
        }
        bytes
    }

    #[test]
    fn every_record_kind_round_trips() {
        let records = sample_records();
        let replay = replay_wal(&segment(&records));
        assert!(!replay.torn_tail);
        assert_eq!(replay.quarantined, 0);
        let back: Vec<WalRecord> = replay.records.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(back, records);
        let seqs: Vec<u64> = replay.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (1..=records.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_truncated_not_decoded() {
        let records = sample_records();
        let full = segment(&records);
        // Chop mid-way through the last frame.
        let cut = full.len() - 3;
        let replay = replay_wal(&full[..cut]);
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), records.len() - 1);
        assert!(replay.valid_len < cut as u64);
        // Replaying exactly the valid prefix is clean.
        let clean = replay_wal(&full[..replay.valid_len as usize]);
        assert!(!clean.torn_tail);
        assert_eq!(clean.records.len(), records.len() - 1);
    }

    #[test]
    fn mid_file_corruption_is_quarantined_with_resync() {
        let records = sample_records();
        let mut bytes = segment(&records);
        // Flip a bit inside the second frame's body (first frame is
        // magic + frame one; corrupt somewhere after that).
        let first_end = WAL_MAGIC.len() + encode_frame(1, &records[0]).len();
        bytes[first_end + 10] ^= 0x40;
        let replay = replay_wal(&bytes);
        assert_eq!(replay.quarantined, 1, "corrupt frame skipped");
        assert!(!replay.torn_tail, "later frames resync");
        assert_eq!(replay.records.len(), records.len() - 1);
        // The quarantined record is the append; everything else survives.
        assert!(replay
            .records
            .iter()
            .all(|(_, r)| !matches!(r, WalRecord::Append { .. })));
    }

    #[test]
    fn empty_and_garbage_files_never_panic() {
        assert_eq!(replay_wal(&[]).records.len(), 0);
        assert!(replay_wal(&[]).torn_tail);
        assert!(replay_wal(b"FUDJ").torn_tail, "short header is torn");
        let garbage = replay_wal(b"NOTMAGIC but quite a lot of garbage here");
        assert!(garbage.torn_tail);
        assert_eq!(garbage.quarantined, 1, "wrong magic is corruption");
        assert_eq!(garbage.records.len(), 0);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn list_type_nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}bigint{}", "list<".repeat(depth), ">".repeat(depth));
        assert!(parse_data_type(&nested(wire::MAX_NESTING)).is_ok());
        assert!(parse_data_type(&nested(wire::MAX_NESTING + 1)).is_err());
        // Deep enough to overflow any worker stack without the cap, and
        // still well under `MAX_FRAME` as a logged field type.
        let deep = nested(100_000);
        assert!(deep.len() < MAX_FRAME);
        assert!(matches!(parse_data_type(&deep), Err(FudjError::Storage(_))));
    }

    #[test]
    fn deeply_nested_appended_row_is_quarantined() {
        // An `Append` of one row holding 100 000 nested lists, framed with a
        // valid checksum: replay rejects the body, it does not recurse.
        let mut body = 1u64.to_le_bytes().to_vec();
        body.push(KIND_APPEND);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b't');
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        for _ in 0..100_000 {
            body.push(10); // list tag
            body.extend_from_slice(&1u32.to_le_bytes());
        }
        body.push(0); // null tag
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        let replay = replay_wal(&bytes);
        assert_eq!((replay.records.len(), replay.quarantined), (0, 1));
        assert!(!replay.torn_tail);
    }

    #[test]
    fn data_types_round_trip_display() {
        for dt in [
            DataType::Null,
            DataType::Bool,
            DataType::Int64,
            DataType::Float64,
            DataType::String,
            DataType::Uuid,
            DataType::DateTime,
            DataType::Interval,
            DataType::Point,
            DataType::Polygon,
            DataType::List(Box::new(DataType::List(Box::new(DataType::Point)))),
        ] {
            assert_eq!(parse_data_type(&dt.to_string()).unwrap(), dt);
        }
        assert!(parse_data_type("varchar").is_err());
        assert!(parse_data_type("list<varchar>").is_err());
    }
}
