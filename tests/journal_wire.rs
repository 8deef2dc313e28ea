//! Property suite for the write-ahead journal's on-disk form
//! (DESIGN.md §10.3), mirroring `serve_protocol.rs` one layer down.
//!
//! Three contracts:
//!
//! * **Round trip** — every journal record kind (`Add`, `Replace`,
//!   `Remove`) and the generation header encode → decode to an equal
//!   value, and a whole journal byte stream scans back in order.
//! * **Loud rejection, quiet prefix** — flipping any single byte of a
//!   journal stream, or truncating it anywhere, never produces a wrong
//!   record: [`scan`] returns exactly the records wholly before the
//!   damage, reports the stop reason, and `valid_len` points at the end
//!   of the last intact frame (the truncation point recovery uses).
//! * **Replay stops at the last valid record** — [`Journal::open`] on a
//!   damaged file recovers that same prefix, truncates the tail, and a
//!   second open replays the identical records with no further loss.
//!
//! Plus upgrade compatibility: a journal written entirely in legacy
//! `CPDF` frames (FNV-1a checksums) replays exactly as its word-wise
//! twin does, and later appends land in the current frame format behind
//! it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use cupid::core::CupidConfig;
use cupid::io::parse_sdl;
use cupid::lexical::Thesaurus;
use cupid::model::wire::{
    FRAME_MAGIC, JOURNAL_ADD, JOURNAL_HEADER, JOURNAL_REMOVE, JOURNAL_REPLACE,
};
use cupid::model::{fnv1a, read_frame, write_frame};
use cupid::repo::journal::{
    journal_path, scan, Journal, JournalHeader, JournalRecord, JOURNAL_VERSION,
};
use cupid::repo::Repository;
use proptest::prelude::*;

/// A unique, self-cleaning journal location per test case.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new() -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cupid-journal-wire-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempJournal(dir.join("cupid.repo.journal"))
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// A schema derived from drawn identifiers — structure varies with `n`
/// so content hashes differ across draws.
fn schema_from(name: &str, attr: &str, n: u64) -> cupid::model::Schema {
    let mut sdl = format!("schema {name}\n  element E{}\n", n % 5);
    for i in 0..=(n % 3) {
        sdl.push_str(&format!("    attr {attr}{i} : int\n"));
    }
    parse_sdl(&sdl).unwrap()
}

/// Every record kind, parameterized by the drawn values.
fn records(name: &str, attr: &str, n: u64) -> Vec<JournalRecord> {
    vec![
        JournalRecord::Add(schema_from(name, attr, n)),
        JournalRecord::Replace(schema_from(name, attr, n.wrapping_add(1))),
        JournalRecord::Remove(name.to_string()),
        JournalRecord::Add(schema_from(attr, name, n.wrapping_add(2))),
    ]
}

fn header_from(n: u64) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        config_fp: n.wrapping_mul(31),
        thesaurus_fp: n.rotate_left(17),
        snapshot_id: n ^ 0xD1CE,
    }
}

/// Encode a full journal stream; returns the bytes and the end offset
/// of every frame (header first) — the boundaries recovery may
/// truncate to.
fn stream(header: &JournalHeader, records: &[JournalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    write_frame(&mut bytes, JOURNAL_HEADER, &header.encode()).unwrap();
    ends.push(bytes.len());
    for record in records {
        let (kind, payload) = record.encode();
        write_frame(&mut bytes, kind, &payload).unwrap();
        ends.push(bytes.len());
    }
    (bytes, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// encode → decode is the identity on the header and on every
    /// record kind, and a whole stream scans back in order.
    #[test]
    fn records_round_trip(
        name in "[A-Za-z][A-Za-z0-9_]{0,8}",
        attr in "[A-Za-z][A-Za-z0-9_]{0,6}",
        n in 0u64..u64::MAX,
    ) {
        let header = header_from(n);
        prop_assert_eq!(JournalHeader::decode(&header.encode()).unwrap(), header);

        let all = records(&name, &attr, n);
        for want in &all {
            let (kind, payload) = want.encode();
            prop_assert!(
                [JOURNAL_ADD, JOURNAL_REPLACE, JOURNAL_REMOVE].contains(&kind),
                "record kinds stay in the journal range"
            );
            let got = JournalRecord::decode(kind, &payload).unwrap();
            prop_assert_eq!(&got, want);
        }

        let (bytes, ends) = stream(&header, &all);
        let s = scan(&bytes);
        prop_assert_eq!(s.header, Some(header));
        prop_assert_eq!(&s.records, &all);
        prop_assert_eq!(s.valid_len as usize, *ends.last().unwrap());
        prop_assert!(s.stopped.is_none(), "clean stream: {:?}", s.stopped);
    }

    /// A single flipped byte anywhere in the stream yields exactly the
    /// records wholly before the damaged frame — never a wrong record —
    /// and truncation at any offset yields the complete-frame prefix.
    #[test]
    fn corruption_recovers_exactly_the_valid_prefix(
        name in "[A-Za-z][A-Za-z0-9_]{0,8}",
        attr in "[A-Za-z][A-Za-z0-9_]{0,6}",
        n in 0u64..u64::MAX,
        at in 0usize..10_000,
    ) {
        let header = header_from(n);
        let all = records(&name, &attr, n);
        let (bytes, ends) = stream(&header, &all);

        // Flip one byte: the frame containing it dies, everything
        // before it survives.
        let flip = at % bytes.len();
        let mut broken = bytes.clone();
        broken[flip] ^= 0x01;
        let damaged_frame = ends.iter().position(|&end| flip < end).unwrap();
        let s = scan(&broken);
        prop_assert!(s.stopped.is_some(), "flip at {} of {} slipped through", flip, bytes.len());
        if damaged_frame == 0 {
            prop_assert_eq!(s.header, None, "damaged header is not trusted");
            prop_assert_eq!(s.records.len(), 0);
            prop_assert_eq!(s.valid_len, 0);
        } else {
            prop_assert_eq!(s.header, Some(header));
            prop_assert_eq!(&s.records, &all[..damaged_frame - 1]);
            prop_assert_eq!(s.valid_len as usize, ends[damaged_frame - 1]);
        }

        // Truncate: complete frames before the cut survive; a cut on a
        // frame boundary is a clean EOF, anywhere else stops loudly.
        let cut = at % bytes.len();
        let s = scan(&bytes[..cut]);
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(s.valid_len as usize, if whole == 0 { 0 } else { ends[whole - 1] });
        if whole == 0 {
            prop_assert_eq!(s.header, None);
            prop_assert_eq!(s.records.len(), 0);
        } else {
            prop_assert_eq!(s.header, Some(header));
            prop_assert_eq!(&s.records, &all[..whole - 1]);
        }
        prop_assert_eq!(s.stopped.is_some(), cut != 0 && ends.iter().all(|&end| end != cut));
    }

    /// File-level replay: `Journal::open` on a damaged journal recovers
    /// the valid prefix, truncates the tail, and a reopen replays the
    /// identical records — recovery is idempotent.
    #[test]
    fn replay_stops_at_the_last_valid_record(
        name in "[A-Za-z][A-Za-z0-9_]{0,8}",
        attr in "[A-Za-z][A-Za-z0-9_]{0,6}",
        n in 0u64..u64::MAX,
        at in 0usize..10_000,
    ) {
        let header = header_from(n);
        let all = records(&name, &attr, n);
        let (bytes, ends) = stream(&header, &all);
        // Damage a byte past the header so the generation stays
        // recognizable (a damaged header is the discard path, covered
        // above and by the unit suite).
        let flip = ends[0] + at % (bytes.len() - ends[0]);
        let mut broken = bytes.clone();
        broken[flip] ^= 0x01;
        let damaged_frame = ends.iter().position(|&end| flip < end).unwrap();

        let tmp = TempJournal::new();
        std::fs::write(&tmp.0, &broken).unwrap();
        let (journal, recovery) = Journal::open(&tmp.0, header).unwrap();
        prop_assert_eq!(&recovery.records, &all[..damaged_frame - 1]);
        prop_assert!(recovery.discarded.is_some(), "damage must be reported");
        prop_assert_eq!(journal.bytes_len() as usize, ends[damaged_frame - 1]);
        drop(journal);
        prop_assert_eq!(
            std::fs::metadata(&tmp.0).unwrap().len() as usize,
            ends[damaged_frame - 1],
            "the damaged tail is truncated away"
        );

        // Idempotent: a second open replays the same prefix cleanly.
        let (_, again) = Journal::open(&tmp.0, header).unwrap();
        prop_assert_eq!(&again.records, &all[..damaged_frame - 1]);
        prop_assert!(again.discarded.is_none(), "second open is clean: {:?}", again.discarded);
    }
}

/// A frame in the legacy layout, built from its spec alone: `CPDF`,
/// kind, `u32` LE length, payload, FNV-1a over kind + payload.
fn legacy_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = b"CPDF".to_vec();
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let checked: Vec<u8> = std::iter::once(kind).chain(payload.iter().copied()).collect();
    frame.extend_from_slice(&fnv1a(&checked).to_le_bytes());
    frame
}

/// Re-frame every frame of a journal file in the legacy layout.
fn to_legacy(mut bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some((kind, payload)) = read_frame(&mut bytes).unwrap() {
        out.extend(legacy_frame(kind, &payload));
    }
    out
}

/// A journal of legacy frames — header plus `Add`/`Replace`/`Remove` —
/// scans and opens to exactly the records it holds; an append after it
/// is a current-format frame, and a reopen replays both.
#[test]
fn legacy_journal_replays_and_takes_current_appends() {
    let header = header_from(7);
    let all = records("Legacy", "Col", 7);
    let legacy = to_legacy(&stream(&header, &all).0);
    assert_eq!(&legacy[..4], b"CPDF");

    let s = scan(&legacy);
    assert_eq!(s.header, Some(header));
    assert_eq!(s.records, all);
    assert_eq!(s.valid_len as usize, legacy.len());
    assert!(s.stopped.is_none(), "clean legacy stream: {:?}", s.stopped);

    let tmp = TempJournal::new();
    std::fs::write(&tmp.0, &legacy).unwrap();
    let (mut journal, recovery) = Journal::open(&tmp.0, header).unwrap();
    assert_eq!(recovery.records, all);
    assert!(recovery.discarded.is_none(), "{:?}", recovery.discarded);
    let extra = JournalRecord::Add(schema_from("Fresh", "Col", 9));
    journal.append(&extra).unwrap();
    journal.sync().unwrap();
    drop(journal);

    let bytes = std::fs::read(&tmp.0).unwrap();
    assert_eq!(bytes[..legacy.len()], legacy[..], "legacy frames stay as written");
    assert_eq!(bytes[legacy.len()..legacy.len() + 4], FRAME_MAGIC, "appends use the new magic");
    let (_, again) = Journal::open(&tmp.0, header).unwrap();
    let mut want = all;
    want.push(extra);
    assert_eq!(again.records, want);
    assert!(again.discarded.is_none(), "{:?}", again.discarded);
}

/// Upgrade path at the repository level: a repository whose journal is
/// all legacy frames reopens to the same schemas and bit-identical
/// match results as with the same journal in current frames, and keeps
/// journaling on top of it.
#[test]
fn legacy_journal_replays_into_an_identical_repository() {
    let tmp = TempJournal::new();
    let snap = tmp.0.with_file_name("cupid.repo");
    let config = CupidConfig::default();
    let thesaurus = Thesaurus::with_default_stopwords();
    {
        let mut repo = Repository::open_or_create(&snap, &config, &thesaurus).unwrap();
        repo.add(&schema_from("Orders", "Qty", 1)).unwrap();
        repo.add(&schema_from("Invoices", "Amount", 2)).unwrap();
        repo.save().unwrap();
        // Journaled, never saved: these live only in the journal.
        repo.add(&schema_from("Lines", "Qty", 3)).unwrap();
        repo.replace(&schema_from("Orders", "Qty", 4)).unwrap();
        repo.remove("Invoices").unwrap();
        repo.add(&schema_from("Bills", "Amount", 5)).unwrap();
        repo.sync_journal().unwrap();
    }
    let journal_file = journal_path(&snap);
    let current = std::fs::read(&journal_file).unwrap();
    let reopen = || {
        let mut repo = Repository::open_or_create(&snap, &config, &thesaurus).unwrap();
        assert_eq!(repo.durability().replayed_records, 4);
        assert_eq!(repo.durability().replay_discarded, None);
        let schemas: Vec<_> =
            repo.names().iter().map(|n| repo.schema(n).unwrap().content_hash()).collect();
        (repo.names().to_vec(), schemas, repo.match_all_pairs())
    };
    let want = reopen();

    std::fs::write(&journal_file, to_legacy(&current)).unwrap();
    assert_eq!(reopen(), want, "legacy replay differs from current-format replay");

    {
        let mut repo = Repository::open_or_create(&snap, &config, &thesaurus).unwrap();
        repo.remove("Lines").unwrap();
        repo.sync_journal().unwrap();
    }
    let bytes = std::fs::read(&journal_file).unwrap();
    let s = scan(&bytes);
    assert_eq!(s.records.len(), 5);
    assert!(s.stopped.is_none(), "{:?}", s.stopped);
    let repo = Repository::open_or_create(&snap, &config, &thesaurus).unwrap();
    assert_eq!(repo.names(), ["Orders", "Bills"]);
}
