//! Out-of-core sequence storage: the [`SequenceStore`] abstraction, the
//! CSEQ v2 streaming writer, the `.csix` sidecar offset index, and the
//! windowed [`FileStore`].
//!
//! The clustering engine only ever needs four things from a corpus: its
//! shape (count, alphabet), per-sequence labels, the background symbol
//! distribution, and — inside the scan loops — the symbols of one
//! sequence at a time. [`SequenceStore`] captures exactly that contract,
//! with [`SequenceDatabase`] (everything resident) and [`FileStore`]
//! (a read-only file view plus a bounded resident window) as the two
//! implementations. Scan workers each obtain their own [`StoreReader`]
//! cursor, so parallel shards stream independent regions of the file
//! without shared seek state.
//!
//! # CSEQ v2 and the `.csix` sidecar
//!
//! Version 2 of the `CSDB` container keeps version 1's byte layout
//! unchanged (see [`crate::binio`]) — the version bump only signals that
//! a sidecar offset index *may* accompany the file. The sidecar, named by
//! appending `.csix` to the data file's name, stores one 16-byte entry
//! per sequence:
//!
//! ```text
//! magic "CSIX" | version u32 = 1 | count u64
//! per sequence: offset u64 | len u32 | label u32 (MAX = none)
//! ```
//!
//! `offset` is the absolute byte position of the sequence's symbol array
//! in the data file and `len` its symbol count, so a record is fetched
//! with one positioned read and no header parsing. [`FileStore::open`]
//! validates the index against the data file (monotone offsets, in-bounds
//! records, matching count) and falls back to rebuilding it with one
//! sequential pass when the sidecar is missing — which also makes every
//! version-1 file openable out of core.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::alphabet::{Alphabet, Symbol};
use crate::background::BackgroundModel;
use crate::binio::{self, BinError};
use crate::database::SequenceDatabase;
use crate::sequence::Sequence;

/// Magic bytes of the sidecar offset index.
pub const INDEX_MAGIC: &[u8; 4] = b"CSIX";
/// Current sidecar index format version.
pub const INDEX_VERSION: u32 = 1;
/// Default resident window of a [`FileStore`] reader, in bytes.
pub const DEFAULT_WINDOW_BYTES: usize = 4 << 20;

/// Which implementation backs a [`SequenceStore`] — recorded in
/// checkpoints so a resumed run knows how its corpus was being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Fully resident [`SequenceDatabase`].
    #[default]
    Memory,
    /// Offset-indexed read-only file view ([`FileStore`]).
    File,
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreKind::Memory => "memory",
            StoreKind::File => "file",
        })
    }
}

impl std::str::FromStr for StoreKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "memory" => Ok(StoreKind::Memory),
            "file" => Ok(StoreKind::File),
            other => Err(format!("unknown store {other:?} (valid: memory, file)")),
        }
    }
}

/// A cursor over one store: yields the symbols of any sequence by id.
///
/// The returned slice borrows the reader's internal buffer and is valid
/// until the next `symbols` call — exactly the shape of the scan loops,
/// which finish with one sequence before fetching the next. Each scan
/// worker owns its own reader, so cursors never contend.
pub trait StoreReader {
    /// The symbols of sequence `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, or (file-backed stores) if the
    /// underlying file fails mid-read — an environmental fault on a file
    /// that was validated at open, like a slice index, not a recoverable
    /// condition.
    fn symbols(&mut self, i: usize) -> &[Symbol];

    /// An owned [`Sequence`] copy of sequence `i` (cold paths: cluster
    /// seeding, PST rebuilds).
    fn sequence(&mut self, i: usize) -> Sequence {
        Sequence::new(self.symbols(i).to_vec())
    }
}

/// A read-only corpus the clustering engine can scan: shape, labels,
/// background distribution, and per-worker [`StoreReader`] cursors.
///
/// Implementations must be deterministic: two readers (or the same reader
/// twice) return identical symbols for the same id, and `background()`
/// is bit-identical across implementations holding the same content —
/// that is what makes an out-of-core run byte-identical to an in-memory
/// run (`tests/out_of_core.rs`).
pub trait SequenceStore: Sync {
    /// Number of sequences.
    fn len(&self) -> usize;

    /// Whether the store holds no sequences.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The alphabet the sequences are over.
    fn alphabet(&self) -> &Alphabet;

    /// The label of sequence `i`, if any.
    fn label(&self, i: usize) -> Option<u32>;

    /// A fresh cursor for fetching sequence symbols.
    fn reader(&self) -> Box<dyn StoreReader + '_>;

    /// The empirical background symbol distribution of the whole corpus.
    fn background(&self) -> BackgroundModel;

    /// Total symbol count across all sequences.
    fn total_symbols(&self) -> u64;

    /// Which implementation this is (checkpoint provenance).
    fn kind(&self) -> StoreKind;
}

// ---- in-memory store ----------------------------------------------------

/// Zero-copy cursor over a resident [`SequenceDatabase`].
pub struct DatabaseReader<'a> {
    db: &'a SequenceDatabase,
}

impl StoreReader for DatabaseReader<'_> {
    fn symbols(&mut self, i: usize) -> &[Symbol] {
        self.db.sequence(i).symbols()
    }
}

impl SequenceStore for SequenceDatabase {
    fn len(&self) -> usize {
        SequenceDatabase::len(self)
    }

    fn alphabet(&self) -> &Alphabet {
        SequenceDatabase::alphabet(self)
    }

    fn label(&self, i: usize) -> Option<u32> {
        SequenceDatabase::label(self, i)
    }

    fn reader(&self) -> Box<dyn StoreReader + '_> {
        Box::new(DatabaseReader { db: self })
    }

    fn background(&self) -> BackgroundModel {
        SequenceDatabase::background(self)
    }

    fn total_symbols(&self) -> u64 {
        SequenceDatabase::total_symbols(self) as u64
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Memory
    }
}

// ---- streaming writer ---------------------------------------------------

/// One entry of the in-memory (or sidecar) offset index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Absolute byte offset of the symbol array in the data file.
    offset: u64,
    /// Symbol count.
    len: u32,
    /// Label (`u32::MAX` = none), mirrored from the record header so a
    /// fetch never parses the data file.
    label: u32,
}

/// Streams a CSEQ v2 database to disk one sequence at a time, emitting
/// the `.csix` sidecar alongside — the whole corpus never exists in RAM.
///
/// The record stream is byte-identical to [`binio::encode`] of the same
/// content (only the header's version number differs), so everything that
/// reads version 1 reads the writer's output.
///
/// ```no_run
/// # use cluseq_seq::{Alphabet, Symbol};
/// # use cluseq_seq::store::CseqWriter;
/// let alphabet = Alphabet::synthetic(4);
/// let mut w = CseqWriter::create("corpus.cseq", &alphabet).unwrap();
/// w.push(&[Symbol(0), Symbol(1)], Some(0)).unwrap();
/// w.push(&[Symbol(2)], None).unwrap();
/// w.finish().unwrap();
/// ```
pub struct CseqWriter {
    data: BufWriter<File>,
    data_path: PathBuf,
    index_path: PathBuf,
    /// Byte position in the data file (maintained, not queried).
    position: u64,
    entries: Vec<IndexEntry>,
    alphabet_size: usize,
}

impl CseqWriter {
    /// Creates `path` (and its `.csix` sibling on [`CseqWriter::finish`])
    /// and writes the v2 header for `alphabet`.
    pub fn create(path: impl AsRef<Path>, alphabet: &Alphabet) -> io::Result<Self> {
        let data_path = path.as_ref().to_path_buf();
        let index_path = sidecar_path(&data_path);
        let file = File::create(&data_path)?;
        let mut data = BufWriter::new(file);
        let mut position = 0u64;
        {
            let mut count = |buf: &[u8]| -> io::Result<()> {
                position += buf.len() as u64;
                data.write_all(buf)
            };
            count(binio::MAGIC)?;
            count(&binio::VERSION_INDEXED.to_le_bytes())?;
            count(&(alphabet.len() as u32).to_le_bytes())?;
            for sym in alphabet.symbols() {
                let name = alphabet.name(sym).as_bytes();
                count(&(name.len() as u16).to_le_bytes())?;
                count(name)?;
            }
            // Sequence count: patched by finish(); remember where it is.
            count(&0u32.to_le_bytes())?;
        }
        Ok(Self {
            data,
            data_path,
            index_path,
            position,
            entries: Vec::new(),
            alphabet_size: alphabet.len(),
        })
    }

    /// Appends one sequence.
    pub fn push(&mut self, symbols: &[Symbol], label: Option<u32>) -> io::Result<()> {
        debug_assert!(
            symbols.iter().all(|s| s.index() < self.alphabet_size),
            "symbol outside the alphabet"
        );
        let mut buf = Vec::with_capacity(8 + symbols.len() * 2);
        let label = label.unwrap_or(u32::MAX);
        buf.extend_from_slice(&label.to_le_bytes());
        buf.extend_from_slice(&(symbols.len() as u32).to_le_bytes());
        let symbols_at = self.position + buf.len() as u64;
        for s in symbols {
            buf.extend_from_slice(&s.0.to_le_bytes());
        }
        self.data.write_all(&buf)?;
        self.position += buf.len() as u64;
        self.entries.push(IndexEntry {
            offset: symbols_at,
            len: symbols.len() as u32,
            label,
        });
        Ok(())
    }

    /// Sequences pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Patches the sequence count into the data header, flushes the data
    /// file, and writes the `.csix` sidecar. Returns the sequence count.
    pub fn finish(mut self) -> io::Result<usize> {
        let n = self.entries.len();
        self.data.flush()?;
        let file = self.data.into_inner().map_err(|e| e.into_error())?;
        // The count field sits immediately before the first record (or at
        // the end of the header when the corpus is empty).
        let count_at = self.entries.first().map_or(self.position, |e| e.offset - 8) - 4;
        file.write_all_at(&(n as u32).to_le_bytes(), count_at)?;
        file.sync_all()?;
        drop(file);

        let mut index = BufWriter::new(File::create(&self.index_path)?);
        index.write_all(INDEX_MAGIC)?;
        index.write_all(&INDEX_VERSION.to_le_bytes())?;
        index.write_all(&(n as u64).to_le_bytes())?;
        for e in &self.entries {
            index.write_all(&e.offset.to_le_bytes())?;
            index.write_all(&e.len.to_le_bytes())?;
            index.write_all(&e.label.to_le_bytes())?;
        }
        index.flush()?;
        index.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        let _ = self.data_path;
        Ok(n)
    }
}

/// The sidecar index path of a data file: `corpus.cseq` →
/// `corpus.cseq.csix` (appended, never substituted, so distinct data
/// files never share an index name).
pub fn sidecar_path(data: &Path) -> PathBuf {
    let mut name = data.file_name().unwrap_or_default().to_os_string();
    name.push(".csix");
    data.with_file_name(name)
}

// ---- file-backed store --------------------------------------------------

/// An offset-indexed, read-only file view of a CSEQ database.
///
/// Resident state is the alphabet, the 16-byte-per-sequence index, and —
/// per reader — one window of `window_bytes` of raw file data plus a
/// decode buffer. Sequence bytes outside the window are fetched with
/// positioned reads (`pread`), so concurrent readers share the one file
/// handle without seek contention, and scanning a shard of ids in order
/// degenerates to sequential I/O.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    file_len: u64,
    alphabet: Alphabet,
    index: Vec<IndexEntry>,
    window_bytes: usize,
    background: BackgroundModel,
    total_symbols: u64,
}

impl FileStore {
    /// Opens `path` with the default resident window
    /// ([`DEFAULT_WINDOW_BYTES`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, BinError> {
        Self::open_windowed(path, DEFAULT_WINDOW_BYTES)
    }

    /// Opens `path` with a caller-chosen resident window. The `.csix`
    /// sidecar is used when present (after validation); otherwise the
    /// index is rebuilt with one sequential pass over the data file, which
    /// also accepts version-1 files.
    pub fn open_windowed(path: impl AsRef<Path>, window_bytes: usize) -> Result<Self, BinError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = io::BufReader::new(&file);
        let (alphabet, declared_count) = binio::decode_header(&mut reader)?;
        let records_at = reader.stream_position()?;

        let index = match read_sidecar(&sidecar_path(path)) {
            Some(entries) => {
                validate_index(&entries, declared_count, records_at, file_len)?;
                entries
            }
            None => scan_index(&mut reader, declared_count, file_len)?,
        };

        // One sequential pass through a reader's window for the background
        // counts — the same smoothed arithmetic as
        // `SequenceDatabase::background`, so the two stores produce
        // bit-identical models for the same content.
        let window_bytes = window_bytes.max(1);
        let mut counts = vec![0u64; alphabet.len()];
        let mut total_symbols = 0u64;
        let mut window = Window::default();
        for &e in &index {
            for chunk in window
                .fetch(&file, file_len, window_bytes, e)?
                .chunks_exact(2)
            {
                let s = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
                if s >= alphabet.len() {
                    return Err(BinError::Corrupt("symbol id out of range"));
                }
                counts[s] += 1;
            }
            total_symbols += u64::from(e.len);
        }
        let background = BackgroundModel::fit_counts(&counts);

        Ok(Self {
            file,
            file_len,
            alphabet,
            index,
            window_bytes,
            background,
            total_symbols,
        })
    }

    /// The configured per-reader resident window, in bytes.
    pub fn window_bytes(&self) -> usize {
        self.window_bytes
    }

    /// Resident size of the offset index, in bytes.
    pub fn index_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<IndexEntry>()
    }
}

impl SequenceStore for FileStore {
    fn len(&self) -> usize {
        self.index.len()
    }

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn label(&self, i: usize) -> Option<u32> {
        match self.index[i].label {
            u32::MAX => None,
            l => Some(l),
        }
    }

    fn reader(&self) -> Box<dyn StoreReader + '_> {
        Box::new(FileReader {
            store: self,
            window: Window::default(),
            decoded: Vec::new(),
        })
    }

    fn background(&self) -> BackgroundModel {
        self.background.clone()
    }

    fn total_symbols(&self) -> u64 {
        self.total_symbols
    }

    fn kind(&self) -> StoreKind {
        StoreKind::File
    }
}

/// A resident window of raw file bytes, the one read path of a
/// [`FileStore`]: a record inside the window is a slice of it, and a miss
/// slides the window to start at the record with one positioned read.
#[derive(Debug, Default)]
struct Window {
    bytes: Vec<u8>,
    start: u64,
}

impl Window {
    /// The raw symbol bytes of record `e`, reading `window_bytes` of
    /// `file` from the record on when they are not resident.
    fn fetch(
        &mut self,
        file: &File,
        file_len: u64,
        window_bytes: usize,
        e: IndexEntry,
    ) -> io::Result<&[u8]> {
        let byte_len = e.len as usize * 2;
        let in_window = e.offset >= self.start
            && e.offset + byte_len as u64 <= self.start + self.bytes.len() as u64;
        if !in_window {
            // Oversized records get a one-off exact-sized window rather
            // than failing.
            let take = (file_len - e.offset).min(window_bytes.max(byte_len) as u64) as usize;
            self.bytes.resize(take, 0);
            if let Err(err) = file.read_exact_at(&mut self.bytes, e.offset) {
                self.bytes.clear();
                return Err(err);
            }
            self.start = e.offset;
        }
        let rel = (e.offset - self.start) as usize;
        Ok(&self.bytes[rel..rel + byte_len])
    }
}

/// A [`FileStore`] cursor: one resident window of raw file bytes plus
/// a decode buffer. Fetches inside the window are pure decodes.
pub struct FileReader<'a> {
    store: &'a FileStore,
    window: Window,
    decoded: Vec<Symbol>,
}

impl StoreReader for FileReader<'_> {
    fn symbols(&mut self, i: usize) -> &[Symbol] {
        let store = self.store;
        let raw = self
            .window
            .fetch(
                &store.file,
                store.file_len,
                store.window_bytes,
                store.index[i],
            )
            .expect("read from validated sequence store");
        self.decoded.clear();
        self.decoded.extend(
            raw.chunks_exact(2)
                .map(|c| Symbol(u16::from_le_bytes([c[0], c[1]]))),
        );
        &self.decoded
    }
}

// ---- index I/O and validation -------------------------------------------

/// Reads a sidecar index file; `None` when it does not exist, `Some` with
/// whatever parses otherwise (structural errors surface as an empty read
/// via [`validate_index`] failing — callers treat any parse failure as
/// "no usable sidecar" only for `NotFound`; corrupt sidecars are errors,
/// not silently ignored, so a damaged index cannot demote itself to a
/// slow path that masks the damage).
fn read_sidecar(path: &Path) -> Option<Vec<IndexEntry>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
        Err(_) => return Some(Vec::new()), // unreadable → fails validation
    };
    parse_index(&bytes).map_or(Some(Vec::new()), Some)
}

/// Parses sidecar bytes; `None` on any structural problem (the caller's
/// validation then rejects the empty index against a nonzero count).
fn parse_index(bytes: &[u8]) -> Option<Vec<IndexEntry>> {
    if bytes.len() < 16 || &bytes[..4] != INDEX_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != INDEX_VERSION {
        return None;
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
    let body = &bytes[16..];
    if body.len() != count.checked_mul(16)? {
        return None;
    }
    Some(
        body.chunks_exact(16)
            .map(|e| IndexEntry {
                offset: u64::from_le_bytes(e[..8].try_into().unwrap()),
                len: u32::from_le_bytes(e[8..12].try_into().unwrap()),
                label: u32::from_le_bytes(e[12..16].try_into().unwrap()),
            })
            .collect(),
    )
}

/// Structural validation of an index against the data file it claims to
/// describe: entry count matches the header, offsets are monotone and
/// consistent with the record framing, and every record lies in bounds.
fn validate_index(
    entries: &[IndexEntry],
    declared_count: usize,
    records_at: u64,
    file_len: u64,
) -> Result<(), BinError> {
    if entries.len() != declared_count {
        return Err(BinError::Corrupt("index count mismatch"));
    }
    let mut expect = records_at;
    for e in entries {
        // Each record is label u32 | len u32 | symbols; the indexed
        // offset points at the symbols.
        if e.offset != expect + 8 {
            return Err(BinError::Corrupt("index offsets out of order"));
        }
        let end = e
            .offset
            .checked_add(u64::from(e.len) * 2)
            .ok_or(BinError::Corrupt("index entry overflows"))?;
        if end > file_len {
            return Err(BinError::Corrupt("index entry past end of file"));
        }
        expect = end;
    }
    Ok(())
}

/// Rebuilds the index with one sequential pass over the record stream
/// (positioned just past the header). Tolerates a data file that holds
/// exactly the declared records and nothing else.
fn scan_index(
    r: &mut (impl Read + Seek),
    declared_count: usize,
    file_len: u64,
) -> Result<Vec<IndexEntry>, BinError> {
    let mut entries = Vec::with_capacity(declared_count.min(1 << 20));
    let mut position = r.stream_position()?;
    for _ in 0..declared_count {
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        let label = u32::from_le_bytes(head[..4].try_into().unwrap());
        let len = u32::from_le_bytes(head[4..].try_into().unwrap());
        let offset = position + 8;
        let end = offset
            .checked_add(u64::from(len) * 2)
            .ok_or(BinError::Corrupt("record length overflows"))?;
        if end > file_len {
            return Err(BinError::Corrupt("record past end of file"));
        }
        r.seek(io::SeekFrom::Start(end))?;
        position = end;
        entries.push(IndexEntry { offset, len, label });
    }
    Ok(entries)
}

/// Streams a resident database to `path` in CSEQ v2 with its sidecar —
/// convenience over [`CseqWriter`] for tools that already hold the data.
pub fn write_indexed(db: &SequenceDatabase, path: impl AsRef<Path>) -> io::Result<usize> {
    let mut w = CseqWriter::create(path, SequenceDatabase::alphabet(db))?;
    for (_, seq, label) in db.iter() {
        w.push(seq.symbols(), label)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cluseq-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture() -> SequenceDatabase {
        let mut alphabet = Alphabet::new();
        for name in ["open", "close", "x", "y"] {
            alphabet.intern(name);
        }
        let mut db = SequenceDatabase::new(alphabet);
        let mk = |ids: &[u16]| Sequence::new(ids.iter().map(|&i| Symbol(i)).collect());
        db.push_labeled(mk(&[0, 1, 0, 2, 3, 1]), Some(7));
        db.push_labeled(mk(&[2, 2]), None);
        db.push_labeled(mk(&[]), Some(0));
        db.push_labeled(mk(&[3, 0, 1, 2, 3, 0, 1, 2, 3]), Some(1));
        db
    }

    fn write_fixture(dir: &Path) -> PathBuf {
        let path = dir.join("corpus.cseq");
        write_indexed(&fixture(), &path).unwrap();
        path
    }

    #[test]
    fn database_store_is_a_zero_copy_view() {
        let db = fixture();
        let store: &dyn SequenceStore = &db;
        assert_eq!(store.len(), 4);
        assert_eq!(store.kind(), StoreKind::Memory);
        assert_eq!(store.label(0), Some(7));
        assert_eq!(store.label(1), None);
        let mut reader = store.reader();
        for i in 0..db.len() {
            assert_eq!(reader.symbols(i), db.sequence(i).symbols());
        }
        assert_eq!(reader.sequence(3).symbols(), db.sequence(3).symbols());
    }

    #[test]
    fn streamed_write_round_trips_through_decode() {
        let dir = tmp_dir("roundtrip");
        let path = write_fixture(&dir);
        // The v2 file decodes with the plain reader.
        let bytes = std::fs::read(&path).unwrap();
        let loaded = binio::decode(&mut bytes.as_slice()).unwrap();
        let db = fixture();
        assert_eq!(loaded.len(), db.len());
        for i in 0..db.len() {
            assert_eq!(loaded.sequence(i), db.sequence(i));
            assert_eq!(loaded.label(i), db.label(i));
        }
        // And the record stream is byte-identical to v1 apart from the
        // version field.
        let mut v1 = Vec::new();
        binio::encode(&db, &mut v1).unwrap();
        assert_eq!(bytes[..4], v1[..4]);
        assert_eq!(bytes[8..], v1[8..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_matches_the_database_for_every_window_size() {
        let dir = tmp_dir("windows");
        let path = write_fixture(&dir);
        let db = fixture();
        for window in [1, 7, 64, DEFAULT_WINDOW_BYTES] {
            let store = FileStore::open_windowed(&path, window).unwrap();
            assert_eq!(SequenceStore::len(&store), db.len());
            assert_eq!(store.kind(), StoreKind::File);
            assert_eq!(SequenceStore::alphabet(&store).len(), 4);
            let mut reader = store.reader();
            for i in 0..db.len() {
                assert_eq!(
                    reader.symbols(i),
                    db.sequence(i).symbols(),
                    "window {window} sequence {i}"
                );
                assert_eq!(store.label(i), db.label(i));
            }
            // Random-order access through a tiny window stays correct.
            for &i in &[3usize, 0, 3, 1, 2, 0] {
                assert_eq!(reader.symbols(i), db.sequence(i).symbols());
            }
            assert_eq!(store.total_symbols(), db.total_symbols() as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_background_is_bit_identical_to_the_database() {
        let dir = tmp_dir("background");
        let path = write_fixture(&dir);
        let db = fixture();
        let store = FileStore::open(&path).unwrap();
        let mem = SequenceDatabase::background(&db);
        let file = store.background();
        assert_eq!(mem.alphabet_size(), file.alphabet_size());
        for i in 0..mem.alphabet_size() {
            let s = Symbol(i as u16);
            assert_eq!(mem.prob(s).to_bits(), file.prob(s).to_bits());
            assert_eq!(mem.ln_prob(s).to_bits(), file.ln_prob(s).to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_sidecar_falls_back_to_a_sequential_scan() {
        let dir = tmp_dir("nosidecar");
        let path = write_fixture(&dir);
        std::fs::remove_file(sidecar_path(&path)).unwrap();
        let store = FileStore::open(&path).unwrap();
        let db = fixture();
        let mut reader = store.reader();
        for i in 0..db.len() {
            assert_eq!(reader.symbols(i), db.sequence(i).symbols());
            assert_eq!(store.label(i), db.label(i));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_files_open_out_of_core() {
        let dir = tmp_dir("v1");
        let path = dir.join("old.cseq");
        let db = fixture();
        let mut bytes = Vec::new();
        binio::encode(&db, &mut bytes).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let store = FileStore::open(&path).unwrap();
        let mut reader = store.reader();
        for i in 0..db.len() {
            assert_eq!(reader.symbols(i), db.sequence(i).symbols());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sidecars_are_rejected_not_ignored() {
        let dir = tmp_dir("hostile");
        let path = write_fixture(&dir);
        let sidecar = sidecar_path(&path);
        let good = std::fs::read(&sidecar).unwrap();

        // Truncated body.
        std::fs::write(&sidecar, &good[..good.len() - 5]).unwrap();
        assert!(matches!(
            FileStore::open(&path).unwrap_err(),
            BinError::Corrupt(_)
        ));

        // Count lies low.
        let mut fewer = good.clone();
        fewer[8..16].copy_from_slice(&2u64.to_le_bytes());
        fewer.truncate(16 + 2 * 16);
        std::fs::write(&sidecar, &fewer).unwrap();
        assert!(matches!(
            FileStore::open(&path).unwrap_err(),
            BinError::Corrupt("index count mismatch")
        ));

        // An offset pointing past the end of the data file.
        let mut wild = good.clone();
        let last = wild.len() - 16;
        wild[last..last + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&sidecar, &wild).unwrap();
        assert!(matches!(
            FileStore::open(&path).unwrap_err(),
            BinError::Corrupt(_)
        ));

        // A non-monotone offset (two entries swapped).
        let mut swapped = good.clone();
        let (a, b) = (16, 32);
        for k in 0..16 {
            swapped.swap(a + k, b + k);
        }
        std::fs::write(&sidecar, &swapped).unwrap();
        assert!(matches!(
            FileStore::open(&path).unwrap_err(),
            BinError::Corrupt("index offsets out of order")
        ));

        // Restoring the good sidecar opens cleanly again.
        std::fs::write(&sidecar, &good).unwrap();
        assert!(FileStore::open(&path).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_data_files_are_rejected() {
        let dir = tmp_dir("truncated");
        let path = write_fixture(&dir);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        // With the (now stale) sidecar: the final entry hangs past EOF.
        assert!(FileStore::open(&path).is_err());
        // Without it: the sequential scan hits the same wall.
        std::fs::remove_file(sidecar_path(&path)).unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_kind_parses_and_displays() {
        assert_eq!("memory".parse::<StoreKind>().unwrap(), StoreKind::Memory);
        assert_eq!("file".parse::<StoreKind>().unwrap(), StoreKind::File);
        assert_eq!(StoreKind::File.to_string(), "file");
        let err = "tape".parse::<StoreKind>().unwrap_err();
        assert!(err.contains("memory") && err.contains("file"), "{err}");
    }

    #[test]
    fn empty_corpus_streams_and_opens() {
        let dir = tmp_dir("empty");
        let path = dir.join("empty.cseq");
        let w = CseqWriter::create(&path, &Alphabet::synthetic(2)).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.finish().unwrap(), 0);
        let store = FileStore::open(&path).unwrap();
        assert!(SequenceStore::is_empty(&store));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
