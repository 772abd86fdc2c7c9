//! Atomic snapshots and the versioned manifest.
//!
//! A snapshot is one self-contained, checksummed image of the engine's
//! durable state — every table (schema + rows, rows via the
//! [`fudj_types::wire`] codec) and every registered join spec — tagged
//! with the WAL sequence number it covers. Snapshots compact the log:
//! after `snapshot-{v}.fsnap` commits, every WAL segment below version
//! `v` is garbage.
//!
//! The write protocol is the classic atomic dance, with a named crash
//! point after every step (exercised by the crash-restart harness):
//!
//! 1. write `snapshot-{v}.fsnap.tmp`           (`snapshot:write`)
//! 2. fsync it                                 (`snapshot:sync`)
//! 3. rename to `snapshot-{v}.fsnap`           (`snapshot:rename`)
//! 4. start `wal-{v}.flog` (magic header)      (`wal:rotate`)
//! 5. write + fsync + rename `MANIFEST`        (`manifest:write` / `manifest:rename`)
//! 6. delete stale segments and snapshots      (`compact:cleanup`)
//!
//! The manifest rename at step 5 is the commit point; a crash anywhere
//! earlier leaves the previous version fully recoverable, a crash after
//! leaves only removable garbage. A corrupt or missing manifest falls
//! back to a directory scan for the newest *checksum-valid* snapshot.

use crate::wal::{crc32, get_join_spec, put_join_spec, put_str, JoinSpec};
use bytes::{BufMut, BytesMut};
use fudj_types::wire::{self, Cursor};
use fudj_types::{FudjError, Result, Row};

/// First eight bytes of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"FUDJSNP1";
/// First eight bytes of the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"FUDJMAN1";
/// Manifest file name.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// File name of the snapshot at `version`.
pub fn snapshot_name(version: u64) -> String {
    format!("snapshot-{version:010}.fsnap")
}

/// File name of the WAL segment at `version`.
pub fn wal_name(version: u64) -> String {
    format!("wal-{version:010}.flog")
}

/// Parse a `snapshot-NNN.fsnap` / `wal-NNN.flog` name back to its version.
pub fn parse_versioned(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// One table image inside a snapshot (schema as display strings, like the
/// WAL's `CreateTable`).
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotTable {
    /// Dataset name.
    pub name: String,
    /// `(field name, data type display string)` per column.
    pub fields: Vec<(String, String)>,
    /// Primary-key column name.
    pub primary_key: String,
    /// Partition count.
    pub partitions: u32,
    /// All rows (insertion-order within the image is irrelevant — the
    /// partitioner re-derives placement deterministically on load).
    pub rows: Vec<Row>,
}

/// The full durable state captured by one snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotState {
    /// Highest WAL sequence number the snapshot covers; replay resumes
    /// after it.
    pub last_seq: u64,
    /// Registered join specs.
    pub joins: Vec<JoinSpec>,
    /// Table images.
    pub tables: Vec<SnapshotTable>,
}

/// Encode a snapshot file: magic + body + trailing CRC32 over the body.
pub fn encode_snapshot(state: &SnapshotState) -> Vec<u8> {
    encode_snapshot_at(state.last_seq, state)
}

/// [`encode_snapshot`] of `state` covering WAL sequence numbers up to
/// `last_seq` instead of `state.last_seq`. Magic and body go into one
/// buffer and the checksum is taken over the body where it lies.
pub(crate) fn encode_snapshot_at(last_seq: u64, state: &SnapshotState) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(256);
    out.put_slice(SNAPSHOT_MAGIC);
    out.put_u64_le(last_seq);
    out.put_u32_le(state.joins.len() as u32);
    for spec in &state.joins {
        put_join_spec(&mut out, spec);
    }
    out.put_u32_le(state.tables.len() as u32);
    for table in &state.tables {
        put_str(&mut out, &table.name);
        out.put_u32_le(table.fields.len() as u32);
        for (fname, ftype) in &table.fields {
            put_str(&mut out, fname);
            put_str(&mut out, ftype);
        }
        put_str(&mut out, &table.primary_key);
        out.put_u32_le(table.partitions);
        out.put_u32_le(table.rows.len() as u32);
        for row in &table.rows {
            wire::encode_row(row, &mut out);
        }
    }
    let crc = crc32(&out[SNAPSHOT_MAGIC.len()..]);
    out.put_u32_le(crc);
    out.into()
}

/// Decode and checksum-verify a snapshot file. Any corruption — torn
/// write, bit flip, truncation — fails the CRC and returns a clean error
/// (the recovery layer quarantines it and falls back).
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotState> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(FudjError::Storage("snapshot header missing or torn".into()));
    }
    let (body, stored) =
        bytes[SNAPSHOT_MAGIC.len()..].split_at(bytes.len() - SNAPSHOT_MAGIC.len() - 4);
    if crc32(body).to_le_bytes() != stored {
        return Err(FudjError::Storage("snapshot checksum mismatch".into()));
    }
    let mut cur = Cursor::new(body);
    let last_seq = cur.u64("snapshot header")?;
    let njoins = cur.u32("snapshot header")? as usize;
    let mut joins = Vec::with_capacity(njoins.min(1024));
    for _ in 0..njoins {
        joins.push(get_join_spec(&mut cur)?);
    }
    let ntables = cur.u32("table count")? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    for _ in 0..ntables {
        let name = cur.str("table name")?.to_owned();
        let nfields = cur.u32("field count")? as usize;
        let mut fields = Vec::with_capacity(nfields.min(1024));
        for _ in 0..nfields {
            let fname = cur.str("field name")?.to_owned();
            let ftype = cur.str("field type")?.to_owned();
            fields.push((fname, ftype));
        }
        let primary_key = cur.str("primary key")?.to_owned();
        let partitions = cur.u32("table header")?;
        let nrows = cur.u32("table header")? as usize;
        let mut rows = Vec::new();
        cur.rows(Some(nrows), &mut rows)?;
        tables.push(SnapshotTable {
            name,
            fields,
            primary_key,
            partitions,
            rows,
        });
    }
    Ok(SnapshotState {
        last_seq,
        joins,
        tables,
    })
}

/// Encode the manifest: magic + version + CRC32 over the version bytes.
pub fn encode_manifest(version: u64) -> Vec<u8> {
    let body = version.to_le_bytes();
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Decode and verify the manifest, returning the current version.
pub fn decode_manifest(bytes: &[u8]) -> Result<u64> {
    if bytes.len() != 20 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(FudjError::Storage("manifest missing or torn".into()));
    }
    let body: [u8; 8] = bytes[8..16].try_into().expect("slice is 8 bytes");
    let stored = u32::from_le_bytes(bytes[16..20].try_into().expect("slice is 4 bytes"));
    if crc32(&body) != stored {
        return Err(FudjError::Storage("manifest checksum mismatch".into()));
    }
    Ok(u64::from_le_bytes(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::GuardSpec;
    use fudj_types::Value;

    fn state() -> SnapshotState {
        SnapshotState {
            last_seq: 42,
            joins: vec![JoinSpec {
                name: "overlap".into(),
                library: "temporal".into(),
                class: "interval".into(),
                arg_types: vec!["interval".into(), "interval".into()],
                guard: GuardSpec {
                    policy: "failfast".into(),
                    call_budget_ms: 50,
                    max_pplan_bytes: 4096,
                    max_buckets_per_key: 16,
                    max_assign_fanout: 8,
                    check_sample: 1,
                },
                memory_budget_rows: None,
            }],
            tables: vec![SnapshotTable {
                name: "events".into(),
                fields: vec![
                    ("id".into(), "bigint".into()),
                    ("tag".into(), "string".into()),
                ],
                primary_key: "id".into(),
                partitions: 3,
                rows: vec![
                    Row::new(vec![Value::Int64(1), Value::str("x")]),
                    Row::new(vec![Value::Int64(2), Value::Null]),
                ],
            }],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = state();
        let bytes = encode_snapshot(&s);
        assert_eq!(decode_snapshot(&bytes).unwrap(), s);
        // Empty state round-trips too.
        let empty = SnapshotState::default();
        assert_eq!(decode_snapshot(&encode_snapshot(&empty)).unwrap(), empty);
    }

    #[test]
    fn any_corruption_is_detected() {
        let bytes = encode_snapshot(&state());
        for pos in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(decode_snapshot(&bad).is_err(), "flip at {pos} undetected");
        }
        for cut in [0, 7, bytes.len() - 1] {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut}"
            );
        }
    }

    #[test]
    fn manifest_round_trips_and_detects_corruption() {
        let bytes = encode_manifest(7);
        assert_eq!(decode_manifest(&bytes).unwrap(), 7);
        let mut bad = bytes.clone();
        bad[12] ^= 0x80;
        assert!(decode_manifest(&bad).is_err());
        assert!(decode_manifest(&bytes[..10]).is_err());
        assert!(decode_manifest(b"").is_err());
    }

    #[test]
    fn versioned_names_parse_back() {
        assert_eq!(snapshot_name(7), "snapshot-0000000007.fsnap");
        assert_eq!(wal_name(12), "wal-0000000012.flog");
        assert_eq!(
            parse_versioned(&snapshot_name(7), "snapshot-", ".fsnap"),
            Some(7)
        );
        assert_eq!(parse_versioned(&wal_name(12), "wal-", ".flog"), Some(12));
        assert_eq!(parse_versioned("junk.fsnap", "snapshot-", ".fsnap"), None);
        assert_eq!(
            parse_versioned("snapshot-x.fsnap", "snapshot-", ".fsnap"),
            None
        );
    }
}
