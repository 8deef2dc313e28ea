//! The versioned snapshot container (DESIGN.md §8.2).
//!
//! Layout (all integers little-endian, strings length-prefixed UTF-8 —
//! see `cupid_model::wire`):
//!
//! ```text
//! magic        8 bytes   b"CUPIDREP"
//! version      u32       currently 1
//! config_fp    u64       CupidConfig::fingerprint()
//! thesaurus_fp u64       Thesaurus::fingerprint()
//! token table            TokenTable wire (entries in id order)
//! sim store              SimStore wire (allocated chunks, f64 bits)
//! schema count u32
//!   per schema: name, content hash u64, Schema wire, PreparedSchema wire
//! cache count  u32
//!   per entry: source hash u64, target hash u64, MatchSummary wire
//! checksum     u64       fnv1a of every preceding byte
//! ```
//!
//! The snapshot's id — the `snapshot_id` a journal header names — is
//! FNV-1a of the whole file, checksum included. FNV-1a is incremental,
//! so it is the body hash the checksum already is, extended over the
//! checksum's eight bytes: [`encode`] and [`check`] return it without
//! hashing the file a second time.
//!
//! Decoding is strict: bad magic, an unknown version, a checksum
//! mismatch or any structural inconsistency is
//! [`RepoError::Corrupt`]; fingerprints that do not match the opening
//! config/thesaurus are [`RepoError::Stale`] (the snapshot is valid,
//! just computed under a different matcher — `open_or_create`
//! discards it and starts fresh rather than serving wrong results).

use std::collections::BTreeMap;

use cupid_core::{MatchSummary, PreparedSchema};
use cupid_lexical::{SimStore, TokenTable};
use cupid_model::{fnv1a, fnv1a_extend, Schema, WireReader, WireWriter};

use crate::RepoError;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"CUPIDREP";
/// Current container version.
pub const VERSION: u32 = 1;

/// Everything a repository persists, decoded and fingerprint-checked.
#[derive(Debug)]
pub(crate) struct SnapshotState {
    /// Schema names, in repository order.
    pub names: Vec<String>,
    /// Content hashes, parallel to `names`.
    pub hashes: Vec<u64>,
    /// Source schema graphs, parallel to `names`.
    pub sources: Vec<Schema>,
    /// Prepared per-schema precompute, parallel to `names`.
    pub prepared: Vec<PreparedSchema>,
    /// The session token table (vocabulary in id order).
    pub table: TokenTable,
    /// The session similarity memo.
    pub store: SimStore,
    /// Per-pair summary cache, keyed by (source hash, target hash).
    pub cache: BTreeMap<(u64, u64), MatchSummary>,
}

/// Borrowed view of everything a repository persists (the encode-side
/// twin of [`SnapshotState`], so saving never clones the session).
pub(crate) struct SnapshotRefs<'a> {
    /// Schema names, in repository order.
    pub names: &'a [String],
    /// Content hashes, parallel to `names`.
    pub hashes: &'a [u64],
    /// Source schema graphs, parallel to `names`.
    pub sources: &'a [Schema],
    /// Prepared per-schema precompute, parallel to `names`.
    pub prepared: &'a [PreparedSchema],
    /// The session token table.
    pub table: &'a TokenTable,
    /// The session similarity memo.
    pub store: &'a SimStore,
    /// Per-pair summary cache.
    pub cache: &'a BTreeMap<(u64, u64), MatchSummary>,
}

/// Encode a snapshot, appending the trailing checksum. Returns the
/// file bytes and the snapshot's id.
pub(crate) fn encode(
    state: &SnapshotRefs<'_>,
    config_fp: u64,
    thesaurus_fp: u64,
) -> (Vec<u8>, u64) {
    let mut w = WireWriter::new();
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    w.put_u64(config_fp);
    w.put_u64(thesaurus_fp);
    state.table.write_wire(&mut w);
    state.store.write_wire(&mut w);
    w.put_len(state.names.len());
    for i in 0..state.names.len() {
        w.put_str(&state.names[i]);
        w.put_u64(state.hashes[i]);
        state.sources[i].write_wire(&mut w);
        state.prepared[i].write_wire(&mut w);
    }
    w.put_len(state.cache.len());
    for (&(ha, hb), summary) in state.cache {
        w.put_u64(ha);
        w.put_u64(hb);
        summary.write_wire(&mut w);
    }
    let checksum = fnv1a(w.bytes());
    w.put_u64(checksum);
    (w.into_bytes(), fnv1a_extend(checksum, &checksum.to_le_bytes()))
}

/// Snapshot bytes whose trailing checksum [`check`] verified.
pub(crate) struct Checked<'a> {
    /// Everything before the checksum.
    body: &'a [u8],
    /// The snapshot's id: FNV-1a of the whole file.
    pub id: u64,
}

/// Verify a snapshot's trailing checksum. Damage anywhere in the file
/// is [`RepoError::Corrupt`]; nothing is decoded yet.
pub(crate) fn check(bytes: &[u8]) -> Result<Checked<'_>, RepoError> {
    let corrupt = |message: String| RepoError::Corrupt { message };
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 + 8 {
        return Err(corrupt(format!("{} bytes is too short for a snapshot", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let actual = fnv1a(body);
    if stored != actual {
        return Err(corrupt(format!("checksum mismatch: stored {stored:#x}, actual {actual:#x}")));
    }
    Ok(Checked { body, id: fnv1a_extend(actual, tail) })
}

/// Decode a checked snapshot and validate it against the opening
/// config/thesaurus fingerprints.
pub(crate) fn decode(
    snapshot: &Checked<'_>,
    config_fp: u64,
    thesaurus_fp: u64,
) -> Result<SnapshotState, RepoError> {
    let corrupt = |message: String| RepoError::Corrupt { message };
    let mut r = WireReader::new(snapshot.body);
    let magic = r.get_bytes(MAGIC.len()).map_err(|e| corrupt(e.to_string()))?;
    if magic != MAGIC {
        return Err(corrupt("bad magic: not a cupid repository snapshot".to_string()));
    }
    let version = r.get_u32().map_err(|e| corrupt(e.to_string()))?;
    if version != VERSION {
        return Err(RepoError::Stale {
            reason: format!("snapshot version {version}, this build reads {VERSION}"),
        });
    }
    let snap_config_fp = r.get_u64().map_err(|e| corrupt(e.to_string()))?;
    let snap_thesaurus_fp = r.get_u64().map_err(|e| corrupt(e.to_string()))?;
    if snap_config_fp != config_fp {
        return Err(RepoError::Stale {
            reason: format!(
                "config fingerprint {snap_config_fp:#x} differs from the opening config \
                 ({config_fp:#x}); persisted similarities would not match"
            ),
        });
    }
    if snap_thesaurus_fp != thesaurus_fp {
        return Err(RepoError::Stale {
            reason: format!(
                "thesaurus fingerprint {snap_thesaurus_fp:#x} differs from the opening \
                 thesaurus ({thesaurus_fp:#x}); persisted similarities would not match"
            ),
        });
    }

    let mut parse = || -> Result<SnapshotState, cupid_model::WireError> {
        let table = TokenTable::read_wire(&mut r)?;
        let store = SimStore::read_wire(&mut r)?;
        let vocab = table.len();
        let n = r.get_len()?;
        let mut names = Vec::with_capacity(n);
        let mut hashes = Vec::with_capacity(n);
        let mut sources = Vec::with_capacity(n);
        let mut prepared = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(r.get_str()?);
            hashes.push(r.get_u64()?);
            sources.push(Schema::read_wire(&mut r)?);
            prepared.push(PreparedSchema::read_wire(&mut r, vocab)?);
        }
        let nc = r.get_len()?;
        let mut cache = BTreeMap::new();
        for _ in 0..nc {
            let ha = r.get_u64()?;
            let hb = r.get_u64()?;
            cache.insert((ha, hb), MatchSummary::read_wire(&mut r)?);
        }
        r.finish()?;
        Ok(SnapshotState { names, hashes, sources, prepared, table, store, cache })
    };
    let state = parse().map_err(|e| corrupt(e.to_string()))?;

    // Cross-checks the wire decoders cannot do locally.
    for (i, (schema, &hash)) in state.sources.iter().zip(&state.hashes).enumerate() {
        if schema.content_hash() != hash {
            return Err(corrupt(format!(
                "schema #{i} ({}) hashes to {:#x} but the snapshot recorded {hash:#x}",
                state.names[i],
                schema.content_hash()
            )));
        }
    }
    let mut seen = state.names.clone();
    seen.sort();
    seen.dedup();
    if seen.len() != state.names.len() {
        return Err(corrupt("duplicate schema names".to_string()));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty snapshot's bytes and id.
    fn empty_snapshot() -> (Vec<u8>, u64) {
        let (table, store, cache) = (TokenTable::new(), SimStore::new(), BTreeMap::new());
        let refs = SnapshotRefs {
            names: &[],
            hashes: &[],
            sources: &[],
            prepared: &[],
            table: &table,
            store: &store,
            cache: &cache,
        };
        encode(&refs, 1, 2)
    }

    fn empty_bytes() -> Vec<u8> {
        empty_snapshot().0
    }

    fn open(bytes: &[u8], config_fp: u64, thesaurus_fp: u64) -> Result<SnapshotState, RepoError> {
        decode(&check(bytes)?, config_fp, thesaurus_fp)
    }

    #[test]
    fn id_is_fnv1a_of_the_whole_file() {
        let (bytes, id) = empty_snapshot();
        assert_eq!(id, fnv1a(&bytes));
        assert_eq!(check(&bytes).unwrap().id, id);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let state = open(&empty_bytes(), 1, 2).unwrap();
        assert!(state.names.is_empty());
        assert!(state.cache.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_is_stale_not_corrupt() {
        let bytes = empty_bytes();
        assert!(matches!(open(&bytes, 99, 2), Err(RepoError::Stale { .. })));
        assert!(matches!(open(&bytes, 1, 99), Err(RepoError::Stale { .. })));
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let bytes = empty_bytes();
        for i in 0..bytes.len() {
            let mut broken = bytes.clone();
            broken[i] ^= 0x01;
            assert!(open(&broken, 1, 2).is_err(), "flipping byte {i} must not decode silently");
        }
    }

    #[test]
    fn truncation_is_caught() {
        let bytes = empty_bytes();
        for cut in 0..bytes.len() {
            assert!(open(&bytes[..cut], 1, 2).is_err(), "cut at {cut}");
        }
    }
}
