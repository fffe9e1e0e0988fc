//! Replica checkpoint storage.
//!
//! Replicas periodically serialize their service state and write it
//! synchronously to disk, identified by the checkpoint tuple `k_p`
//! (paper §5.2, Predicate 1). A recovering replica reads its latest
//! durable checkpoint, or installs a newer one fetched from a partition
//! peer.
//!
//! Two types live here:
//!
//! * [`CheckpointStore`] — a replica's retained checkpoints. A checkpoint
//!   is streamed into the store chunk by chunk through a
//!   [`CheckpointWriter`], which writes to one of two sinks:
//!   - **memory** ([`CheckpointStore::new`]): the chunks accumulate into
//!     one buffer the store keeps. This is the simulator's model (virtual
//!     disk timing, crash semantics) and the store of live nodes without
//!     a WAL directory.
//!   - **files** ([`CheckpointStore::open_dir`]): each chunk goes to a
//!     writer thread that appends it to a temp file and hands the buffer
//!     back for reuse (two chunk buffers per checkpoint);
//!     [`CheckpointStore::finish`] has the thread write the trailer and
//!     rename the file into place. The caller's thread never touches the
//!     file. The store keeps only `(tuple, path)` per checkpoint and
//!     reads the file back when a peer or a restart needs the state. The
//!     files are not fsynced: they survive a process crash, not a machine
//!     crash (see [`CheckpointStore::open_dir`]).
//! * [`CheckpointFile`] — a real single-slot checkpoint file for
//!   `amcoordd` state snapshots: atomically replaced via write-temp +
//!   `fdatasync` + rename, so a crash mid-save always leaves either the
//!   old or the new checkpoint, never a torn one.
//!
//! ## Checkpoint file layout
//!
//! `ckpt-<seq>.ckpt` is `MAGIC` (8 bytes) · tuple length (u32 LE) · the
//! tuple · the state · state length (u64 LE) · `END` (8 bytes). A file
//! counts only if both magics match, the tuple decodes and the recorded
//! state length accounts for every byte of the file; a torn, truncated
//! or corrupt file reads as absent.

use bytes::{Bytes, BytesMut};
use common::error::Result;
use common::msg::CheckpointTuple;
use common::time::SimTime;
use common::wire::{get_bytes, get_varint, put_varint, Wire};
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use crate::profile::{DiskTimeline, StorageMode, WriteReceipt};

/// `<path>.tmp`: where a checkpoint is written before the rename that
/// publishes it.
fn tmp_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".tmp");
    PathBuf::from(p)
}

/// A single-slot durable checkpoint on a real filesystem: `(cursor,
/// state)` where `cursor` is the position in the replicated log the
/// serialized `state` reflects (the next record it will apply). Replay
/// after a restart is `state + log suffix from cursor` instead of the
/// whole history.
#[derive(Debug)]
pub struct CheckpointFile {
    path: PathBuf,
}

impl CheckpointFile {
    /// A checkpoint slot at `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointFile { path: path.into() }
    }

    /// The slot's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replaces the slot with `(cursor, state)`: the bytes go
    /// to `<path>.tmp`, are fsynced, and renamed over the slot. Durable
    /// when this returns.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the previous checkpoint (if any) is intact.
    pub fn save(&self, cursor: u64, state: &[u8]) -> Result<()> {
        let mut buf = BytesMut::with_capacity(state.len() + 16);
        put_varint(&mut buf, cursor);
        put_varint(&mut buf, state.len() as u64);
        buf.extend_from_slice(state);
        let tmp = tmp_path(&self.path);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable (best effort — not every
        // filesystem supports fsync on directories).
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads the slot. Returns `None` when the file is absent *or*
    /// unreadable/corrupt — a recovering replica then falls back to
    /// replaying its log from the beginning, which is slow but correct.
    pub fn load(&self) -> Option<(u64, Bytes)> {
        let raw = std::fs::read(&self.path).ok()?;
        let mut buf = Bytes::from(raw);
        let cursor = get_varint(&mut buf).ok()?;
        let state = get_bytes(&mut buf).ok()?;
        Some((cursor, state))
    }
}

/// Leading magic of a checkpoint file.
const MAGIC: &[u8; 8] = b"AMCKPT1\n";
/// Trailing magic of a checkpoint file; written last, after the state.
const END: &[u8; 8] = b"AMCKEND\n";
/// Trailer size: state length (u64 LE) plus [`END`].
const TRAILER: u64 = 16;
/// Sanity cap on an encoded tuple (a few bytes per ring).
const MAX_TUPLE: u32 = 1 << 20;

/// The file name of checkpoint number `seq`.
fn file_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.ckpt")
}

/// The sequence number of a checkpoint file name, or of its temp file.
fn file_seq(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("ckpt-")?;
    let (seq, tmp) = match rest.strip_suffix(".ckpt.tmp") {
        Some(seq) => (seq, true),
        None => (rest.strip_suffix(".ckpt")?, false),
    };
    Some((seq.parse().ok()?, tmp))
}

/// Parses a checkpoint file's header: returns the tuple and the offset
/// where the state starts. `head` must hold at least the whole header.
fn parse_header(head: &[u8]) -> Option<(CheckpointTuple, u64)> {
    if head.len() < 12 || &head[..8] != MAGIC {
        return None;
    }
    let tuple_len = u32::from_le_bytes(head[8..12].try_into().ok()?);
    if tuple_len > MAX_TUPLE || head.len() < 12 + tuple_len as usize {
        return None;
    }
    let mut enc = Bytes::copy_from_slice(&head[12..12 + tuple_len as usize]);
    let tuple = CheckpointTuple::decode(&mut enc).ok()?;
    if !enc.is_empty() {
        return None;
    }
    Some((tuple, 12 + u64::from(tuple_len)))
}

/// Checks a checkpoint file's trailer against its size: returns the
/// state length when it accounts for every byte between the header
/// (ending at `state_at`) and the trailer.
fn check_trailer(tail: &[u8], file_len: u64, state_at: u64) -> Option<u64> {
    if tail.len() != TRAILER as usize || &tail[8..] != END {
        return None;
    }
    let state_len = u64::from_le_bytes(tail[..8].try_into().ok()?);
    (state_at.checked_add(state_len)?.checked_add(TRAILER)? == file_len).then_some(state_len)
}

/// Validates a checkpoint file by its header and trailer alone (the state
/// is not read): the tuple and the file's size.
fn probe_file(path: &Path) -> Option<(CheckpointTuple, u64)> {
    let mut f = File::open(path).ok()?;
    let file_len = f.metadata().ok()?.len();
    let mut fixed = [0u8; 12];
    f.read_exact(&mut fixed).ok()?;
    let tuple_len = u32::from_le_bytes(fixed[8..12].try_into().ok()?).min(MAX_TUPLE + 1);
    let mut head = fixed.to_vec();
    head.resize(12 + tuple_len as usize, 0);
    f.read_exact(&mut head[12..]).ok()?;
    let (tuple, state_at) = parse_header(&head)?;
    f.seek(SeekFrom::End(-(TRAILER as i64))).ok()?;
    let mut tail = [0u8; TRAILER as usize];
    f.read_exact(&mut tail).ok()?;
    check_trailer(&tail, file_len, state_at)?;
    Some((tuple, file_len))
}

/// Reads a whole checkpoint file: its tuple and state (a view into the
/// single read buffer, not a copy).
fn read_file(path: &Path) -> Option<(CheckpointTuple, Bytes)> {
    let raw = Bytes::from(std::fs::read(path).ok()?);
    let file_len = raw.len() as u64;
    let (tuple, state_at) = parse_header(&raw)?;
    let tail = raw.get(raw.len().checked_sub(TRAILER as usize)?..)?;
    let state_len = check_trailer(tail, file_len, state_at)?;
    let start = state_at as usize;
    Some((tuple, raw.slice(start..start + state_len as usize)))
}

/// Where a retained checkpoint's state lives.
#[derive(Debug)]
enum Body {
    Mem(Bytes),
    File { path: PathBuf, bytes: u64 },
}

#[derive(Debug)]
struct Entry {
    tuple: CheckpointTuple,
    body: Body,
    durable_at: SimTime,
}

impl Entry {
    fn path(&self) -> Option<&Path> {
        match &self.body {
            Body::File { path, .. } => Some(path),
            Body::Mem(_) => None,
        }
    }

    fn state(&self) -> Option<Bytes> {
        match &self.body {
            Body::Mem(state) => Some(state.clone()),
            Body::File { path, .. } => {
                read_file(path).and_then(|(t, s)| (t == self.tuple).then_some(s))
            }
        }
    }
}

/// What a [`CheckpointWriter`] hands its file thread.
enum Job {
    /// The next chunk of state; the thread returns the emptied buffer.
    Chunk(BytesMut),
    /// The state is complete: write the trailer and publish the file.
    Finish,
}

/// The file thread of one checkpoint. Dropping it without
/// [`Job::Finish`] abandons the checkpoint: the thread deletes its temp
/// file.
struct FileThread {
    jobs: Option<SyncSender<Job>>,
    /// Emptied chunk buffers coming back from the thread.
    free: Receiver<BytesMut>,
    thread: Option<JoinHandle<std::io::Result<u64>>>,
    path: PathBuf,
}

impl FileThread {
    fn send(&self, job: Job) -> Result<()> {
        let jobs = self.jobs.as_ref().ok_or_else(stopped)?;
        jobs.send(job).map_err(|_| stopped())
    }
}

impl Drop for FileThread {
    fn drop(&mut self) {
        // Closing the job channel ends the thread; joining settles its
        // temp file before a successor could look at the directory.
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Body of a checkpoint's file thread: deletes the files `doomed` by
/// earlier evictions, writes `head` and every chunk to `<path>.tmp`,
/// then on [`Job::Finish`] the trailer, and renames the file to `path`.
/// Returns the file's size; on any error (or an abandoned checkpoint)
/// the temp file is removed.
fn write_file(
    path: &Path,
    head: &[u8],
    doomed: Vec<PathBuf>,
    jobs: &Receiver<Job>,
    free: &Sender<BytesMut>,
) -> std::io::Result<u64> {
    for old in doomed {
        let _ = std::fs::remove_file(old);
    }
    let tmp = tmp_path(path);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(head)?;
        let mut state = 0u64;
        loop {
            match jobs.recv() {
                Ok(Job::Chunk(mut chunk)) => {
                    file.write_all(&chunk)?;
                    state += chunk.len() as u64;
                    chunk.clear();
                    let _ = free.send(chunk);
                }
                Ok(Job::Finish) => break,
                Err(_) => return Err(std::io::Error::other("checkpoint abandoned")),
            }
        }
        let mut tail = [0u8; TRAILER as usize];
        tail[..8].copy_from_slice(&state.to_le_bytes());
        tail[8..].copy_from_slice(END);
        file.write_all(&tail)?;
        std::fs::rename(&tmp, path)?;
        Ok(head.len() as u64 + state + TRAILER)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn stopped() -> common::error::Error {
    std::io::Error::other("checkpoint file thread stopped").into()
}

/// One checkpoint being streamed into a [`CheckpointStore`]. The caller
/// serializes into [`CheckpointWriter::buf`] and calls
/// [`CheckpointWriter::flush`] after each chunk, then hands the writer to
/// [`CheckpointStore::finish`]. Dropping an unfinished writer abandons
/// the checkpoint (and deletes its temp file).
pub struct CheckpointWriter {
    tuple: CheckpointTuple,
    buf: BytesMut,
    /// State bytes already handed to the file thread.
    written: u64,
    file: Option<FileThread>,
}

impl CheckpointWriter {
    /// The checkpoint's tuple.
    pub fn tuple(&self) -> &CheckpointTuple {
        &self.tuple
    }

    /// The buffer the next chunk is serialized into.
    pub fn buf(&mut self) -> &mut BytesMut {
        &mut self.buf
    }

    /// Hands the buffered chunk to the sink. The file sink passes it to
    /// its thread and continues in the other chunk buffer (waiting for
    /// it only if the thread is a whole chunk behind); the memory sink
    /// keeps accumulating.
    ///
    /// # Errors
    ///
    /// Fails when the file thread stopped on an I/O error; the
    /// checkpoint should then be abandoned.
    pub fn flush(&mut self) -> Result<()> {
        let Some(file) = &self.file else {
            return Ok(());
        };
        if self.buf.is_empty() {
            return Ok(());
        }
        let next = file.free.recv().map_err(|_| stopped())?;
        let chunk = std::mem::replace(&mut self.buf, next);
        self.written += chunk.len() as u64;
        file.send(Job::Chunk(chunk))
    }

    /// State bytes serialized so far.
    pub fn bytes(&self) -> u64 {
        self.written + self.buf.len() as u64
    }
}

/// Durable checkpoint store for one replica (see the module docs for its
/// two sinks).
///
/// Keeps the most recent `retain` checkpoints (older ones are garbage
/// collected like the paper's log files).
#[derive(Debug)]
pub struct CheckpointStore {
    disk: DiskTimeline,
    entries: Vec<Entry>,
    retain: usize,
    /// The file sink's directory; `None` keeps checkpoints in memory.
    dir: Option<PathBuf>,
    /// Sequence number of the next checkpoint file.
    next_file: u64,
    /// Files of evicted checkpoints; the next checkpoint's file thread
    /// deletes them (freeing a large file's pages takes milliseconds).
    doomed: Vec<PathBuf>,
}

impl CheckpointStore {
    /// An empty in-memory store writing with `mode`, retaining the last
    /// two checkpoints.
    pub fn new(mode: StorageMode) -> Self {
        CheckpointStore {
            disk: DiskTimeline::new(mode),
            entries: Vec::new(),
            retain: 2,
            dir: None,
            next_file: 0,
            doomed: Vec::new(),
        }
    }

    /// A file-backed store over `dir` (created if absent), retaining the
    /// last two checkpoints. Registers the newest complete, valid
    /// checkpoint files already there, so a restarted node finds its own
    /// last checkpoint; leftover temp files, torn or corrupt files and
    /// files beyond retention are deleted.
    ///
    /// Files are written and renamed into place but never fsynced: an
    /// fdatasync of a state-sized file queues its device writes ahead of
    /// the WAL's group-commit fsync on the node loop. They survive a
    /// process crash; a machine crash may tear or lose them, which the
    /// header and trailer checks catch (recovery then fetches from a
    /// partition peer) — the failure model of the acceptors' in-memory
    /// votes.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or listed.
    pub fn open_dir(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut store = CheckpointStore::new(StorageMode::InMemory);
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some((seq, tmp)) = path.file_name().and_then(|n| n.to_str()).and_then(file_seq)
            else {
                continue;
            };
            store.next_file = store.next_file.max(seq + 1);
            match probe_file(&path) {
                Some((tuple, bytes)) if !tmp => found.push((seq, tuple, path, bytes)),
                _ => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        found.sort_by_key(|(seq, ..)| *seq);
        let keep_from = found.len().saturating_sub(store.retain);
        for (i, (_, tuple, path, bytes)) in found.into_iter().enumerate() {
            if i < keep_from {
                let _ = std::fs::remove_file(&path);
                continue;
            }
            store.entries.push(Entry {
                tuple,
                body: Body::File { path, bytes },
                durable_at: SimTime::ZERO,
            });
        }
        store.dir = Some(dir);
        Ok(store)
    }

    /// Starts checkpoint `tuple`. `size_hint` presizes the memory sink's
    /// buffer (the file sink's buffer only ever holds one chunk).
    ///
    /// # Errors
    ///
    /// Fails if the file sink cannot create its temp file.
    pub fn begin(&mut self, tuple: CheckpointTuple, size_hint: usize) -> Result<CheckpointWriter> {
        let Some(dir) = &self.dir else {
            return Ok(CheckpointWriter {
                tuple,
                buf: BytesMut::with_capacity(size_hint),
                written: 0,
                file: None,
            });
        };
        let path = dir.join(file_name(self.next_file));
        self.next_file += 1;
        let mut enc = BytesMut::new();
        tuple.encode(&mut enc);
        let mut head = Vec::with_capacity(12 + enc.len());
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        head.extend_from_slice(&enc);
        let (jobs, job_rx) = sync_channel(2);
        let (free_tx, free) = channel();
        // The second chunk buffer starts out free.
        let _ = free_tx.send(BytesMut::new());
        let doomed = std::mem::take(&mut self.doomed);
        let thread = {
            let path = path.clone();
            std::thread::Builder::new()
                .name("amcast-ckpt-file".into())
                .spawn(move || write_file(&path, &head, doomed, &job_rx, &free_tx))?
        };
        Ok(CheckpointWriter {
            tuple,
            buf: BytesMut::new(),
            written: 0,
            file: Some(FileThread {
                jobs: Some(jobs),
                free,
                thread: Some(thread),
                path,
            }),
        })
    }

    /// Completes `writer`'s checkpoint at `now` and retains it, evicting
    /// the oldest beyond the last two. Returns the write's receipt: the
    /// checkpoint counts as taken (for trim votes) once `receipt.ack_at`
    /// passes — checkpoints are written synchronously in the paper's
    /// services. The memory sink's receipt is the simulated disk's; the
    /// file sink writes the trailer and renames the file into place
    /// before returning, so its receipt is `now`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the checkpoint is then abandoned.
    pub fn finish(&mut self, mut writer: CheckpointWriter, now: SimTime) -> Result<WriteReceipt> {
        // Errors drop the writer, which abandons the checkpoint.
        writer.flush()?;
        let Some(mut file) = writer.file.take() else {
            return Ok(self.retain(writer.tuple, Body::Mem(writer.buf.freeze()), now));
        };
        file.send(Job::Finish)?;
        let thread = file.thread.take().expect("file thread");
        let bytes = thread.join().map_err(|_| stopped())??;
        let body = Body::File {
            path: std::mem::take(&mut file.path),
            bytes,
        };
        Ok(self.retain(writer.tuple, body, now))
    }

    /// Saves checkpoint `tuple` with a whole serialized `state` at `now`
    /// (a checkpoint fetched from a peer, or a test's) through the same
    /// path as [`CheckpointStore::begin`] and [`CheckpointStore::finish`];
    /// the memory sink keeps `state` itself, without a copy.
    ///
    /// # Errors
    ///
    /// As [`CheckpointStore::finish`].
    pub fn save(
        &mut self,
        tuple: CheckpointTuple,
        state: Bytes,
        now: SimTime,
    ) -> Result<WriteReceipt> {
        if self.dir.is_none() {
            return Ok(self.retain(tuple, Body::Mem(state), now));
        }
        let mut writer = self.begin(tuple, 0)?;
        writer.buf.extend_from_slice(&state);
        writer.flush()?;
        self.finish(writer, now)
    }

    fn retain(&mut self, tuple: CheckpointTuple, body: Body, now: SimTime) -> WriteReceipt {
        let receipt = match &body {
            Body::Mem(state) => self.disk.write(state.len() + 32, now),
            Body::File { .. } => WriteReceipt {
                ack_at: now,
                durable_at: now,
            },
        };
        self.entries.push(Entry {
            tuple,
            body,
            durable_at: receipt.durable_at,
        });
        if self.entries.len() > self.retain {
            let excess = self.entries.len() - self.retain;
            let evicted = self.entries.drain(..excess);
            self.doomed
                .extend(evicted.filter_map(|e| e.path().map(Path::to_path_buf)));
        }
        receipt
    }

    /// The state of checkpoint `tuple` if it is still retained, else of
    /// the most recent checkpoint — what a *running* replica ships to a
    /// recovering peer. Returns the tuple actually served with it. The
    /// file sink reads the file here; an unreadable file falls through
    /// to the next candidate.
    pub fn load(&self, tuple: &CheckpointTuple) -> Option<(CheckpointTuple, Bytes)> {
        let exact = self.entries.iter().rposition(|e| &e.tuple == tuple);
        exact
            .into_iter()
            .chain((0..self.entries.len()).rev())
            .find_map(|i| {
                let e = &self.entries[i];
                e.state().map(|s| (e.tuple.clone(), s))
            })
    }

    /// The most recent checkpoint durable at `now` — what survives a crash.
    pub fn latest_durable(&self, now: SimTime) -> Option<(CheckpointTuple, Bytes)> {
        self.entries
            .iter()
            .rev()
            .filter(|e| e.durable_at <= now)
            .find_map(|e| e.state().map(|s| (e.tuple.clone(), s)))
    }

    /// Simulates a crash at `now`: non-durable checkpoints disappear.
    /// In-memory stores lose everything; a file store keeps its files
    /// (a process crash leaves them intact).
    pub fn crash(&mut self, now: SimTime) {
        if self.dir.is_some() {
            return;
        }
        if matches!(self.disk.mode(), StorageMode::InMemory) {
            self.entries.clear();
            return;
        }
        self.entries.retain(|e| e.durable_at <= now);
    }

    /// Bytes of checkpoint files retained on disk (0 for the memory
    /// sink).
    pub fn file_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| match e.body {
                Body::File { bytes, .. } => bytes,
                Body::Mem(_) => 0,
            })
            .sum()
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been checkpointed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DiskProfile;
    use common::ids::{InstanceId, RingId};

    fn tuple(i: u64) -> CheckpointTuple {
        CheckpointTuple::new(vec![(RingId::new(0), InstanceId::new(i))])
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ckpt-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Streams `chunks` through a writer and finishes the checkpoint.
    fn stream(s: &mut CheckpointStore, t: CheckpointTuple, chunks: &[&[u8]]) {
        let mut w = s.begin(t.clone(), 0).unwrap();
        for c in chunks {
            w.buf().extend_from_slice(c);
            w.flush().unwrap();
        }
        s.finish(w, SimTime::ZERO).unwrap();
        assert_eq!(s.load(&t).unwrap().0, t);
    }

    fn ckpt_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .filter(|n| n.starts_with("ckpt-"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_and_fetch_latest() {
        let mut s = CheckpointStore::new(StorageMode::InMemory);
        s.save(tuple(5), Bytes::from_static(b"five"), SimTime::ZERO)
            .unwrap();
        s.save(tuple(9), Bytes::from_static(b"nine"), SimTime::ZERO)
            .unwrap();
        // An unknown tuple serves the latest checkpoint instead.
        let (t, state) = s.load(&tuple(7)).unwrap();
        assert_eq!(t, tuple(9));
        assert_eq!(state, Bytes::from_static(b"nine"));
        assert_eq!(
            s.load(&tuple(5)).unwrap(),
            (tuple(5), Bytes::from_static(b"five"))
        );
    }

    #[test]
    fn retains_bounded_history() {
        let mut s = CheckpointStore::new(StorageMode::InMemory);
        for i in 0..5 {
            s.save(tuple(i), Bytes::new(), SimTime::ZERO).unwrap();
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.load(&tuple(0)).unwrap().0, tuple(4));
        assert_eq!(s.load(&tuple(3)).unwrap().0, tuple(3));
    }

    #[test]
    fn durable_checkpoint_survives_crash() {
        let mut s = CheckpointStore::new(StorageMode::Sync(DiskProfile::ssd()));
        let r = s
            .save(tuple(1), Bytes::from_static(b"one"), SimTime::ZERO)
            .unwrap();
        // Crash before the write completes: gone.
        let mut early = CheckpointStore::new(StorageMode::Sync(DiskProfile::ssd()));
        early
            .save(tuple(1), Bytes::from_static(b"one"), SimTime::ZERO)
            .unwrap();
        early.crash(SimTime::ZERO);
        assert!(early.is_empty());
        // Crash after: survives.
        s.crash(r.durable_at);
        assert_eq!(s.latest_durable(r.durable_at).unwrap().0, tuple(1));
    }

    #[test]
    fn checkpoint_file_saves_loads_and_replaces() {
        let path = std::env::temp_dir().join(format!("ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let slot = CheckpointFile::new(&path);
        assert!(slot.load().is_none(), "absent slot loads nothing");

        slot.save(17, b"state-a").unwrap();
        assert_eq!(slot.load().unwrap(), (17, Bytes::from_static(b"state-a")));

        // Replacement is whole-slot: the newer checkpoint wins.
        slot.save(40, b"state-b-longer").unwrap();
        assert_eq!(
            slot.load().unwrap(),
            (40, Bytes::from_static(b"state-b-longer"))
        );

        // A corrupt slot (truncated payload) reads as absent, not as an
        // error a recovery path would have to special-case.
        std::fs::write(&path, [0x80]).unwrap();
        assert!(slot.load().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn latest_durable_skips_in_flight_writes() {
        let mut s = CheckpointStore::new(StorageMode::Sync(DiskProfile::hdd()));
        let r1 = s
            .save(tuple(1), Bytes::from_static(b"a"), SimTime::ZERO)
            .unwrap();
        let r2 = s
            .save(tuple(2), Bytes::from_static(b"b"), r1.ack_at)
            .unwrap();
        // Between the two flushes, only the first is durable.
        let mid = r1.durable_at;
        assert_eq!(s.latest_durable(mid).unwrap().0, tuple(1));
        assert_eq!(s.latest_durable(r2.durable_at).unwrap().0, tuple(2));
    }

    /// The file sink streams chunks through its writer thread, keeps
    /// only the last two files, and a store reopened on the directory
    /// finds the newest checkpoint again.
    #[test]
    fn file_store_streams_retains_and_reopens() {
        let dir = scratch_dir("stream");
        {
            let mut s = CheckpointStore::open_dir(&dir).unwrap();
            assert!(s.is_empty());
            for i in 1..=3u8 {
                stream(&mut s, tuple(u64::from(i)), &[b"head-", &[i; 3], b"-tail"]);
            }
            assert_eq!(s.len(), 2);
            // The evicted file is deleted by the next checkpoint's thread.
            assert_eq!(ckpt_files(&dir).len(), 3);
            assert_eq!(
                s.load(&tuple(2)).unwrap(),
                (tuple(2), Bytes::from_static(b"head-\x02\x02\x02-tail"))
            );
            assert_eq!(
                s.file_bytes(),
                2 * std::fs::metadata(dir.join(file_name(2))).unwrap().len()
            );
        }
        let mut s = CheckpointStore::open_dir(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(ckpt_files(&dir).len(), 2, "files beyond retention deleted");
        assert_eq!(
            s.latest_durable(SimTime::ZERO).unwrap(),
            (tuple(3), Bytes::from_static(b"head-\x03\x03\x03-tail"))
        );
        // New files continue the sequence instead of reusing a name.
        stream(&mut s, tuple(4), &[b"four"]);
        assert_eq!(ckpt_files(&dir).last().unwrap(), &file_name(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn write (no trailer), a truncated file and a corrupt header
    /// are all ignored on reopen: the store falls back to the newest
    /// checkpoint that is whole, or to nothing (recovery then asks the
    /// partition peers).
    #[test]
    fn file_store_ignores_torn_and_corrupt_files() {
        let dir = scratch_dir("torn");
        {
            let mut s = CheckpointStore::open_dir(&dir).unwrap();
            stream(&mut s, tuple(1), &[b"good-state"]);
            stream(&mut s, tuple(2), &[b"newer-state"]);
        }
        // Truncate the newest file by one byte: its trailer no longer
        // accounts for the file.
        let newest = dir.join(file_name(1));
        let full = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &full[..full.len() - 1]).unwrap();
        // An abandoned temp file from a crash mid-write.
        std::fs::write(dir.join(format!("{}.tmp", file_name(7))), b"AMCKPT1\n").unwrap();
        let s = CheckpointStore::open_dir(&dir).unwrap();
        assert_eq!(
            s.latest_durable(SimTime::ZERO).unwrap(),
            (tuple(1), Bytes::from_static(b"good-state"))
        );
        assert_eq!(
            ckpt_files(&dir),
            vec![file_name(0)],
            "torn and temp files removed"
        );
        drop(s);

        // A corrupt header (bad magic) on the only file: nothing to
        // install.
        let only = dir.join(file_name(0));
        let mut bytes = std::fs::read(&only).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&only, &bytes).unwrap();
        let mut s = CheckpointStore::open_dir(&dir).unwrap();
        assert!(s.latest_durable(SimTime::ZERO).is_none());
        assert!(s.is_empty());
        // A file whose state was damaged after registration is not
        // served either: the header and trailer are re-checked on read.
        stream(&mut s, tuple(9), &[b"fresh"]);
        let path = dir.join(file_name(1));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.load(&tuple(9)).is_none());
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The memory sink keeps accumulating into the writer's buffer; the
    /// file sink hands each flushed chunk to its thread and continues in
    /// an empty buffer.
    #[test]
    fn writer_buffers_by_sink() {
        let dir = scratch_dir("writer");
        let mut mem = CheckpointStore::new(StorageMode::InMemory);
        let mut file = CheckpointStore::open_dir(&dir).unwrap();
        for s in [&mut mem, &mut file] {
            let mut w = s.begin(tuple(1), 64).unwrap();
            w.buf().extend_from_slice(b"0123456789");
            w.flush().unwrap();
            w.buf().extend_from_slice(b"abc");
            assert_eq!(w.bytes(), 13);
            let kept = w.buf().len();
            assert!(kept == 13 || kept == 3, "unexpected buffer {kept}");
            s.finish(w, SimTime::ZERO).unwrap();
            assert_eq!(
                s.load(&tuple(1)).unwrap().1,
                Bytes::from_static(b"0123456789abc")
            );
        }
        // An abandoned writer leaves no temp file behind.
        let w = file.begin(tuple(2), 0).unwrap();
        drop(w);
        assert_eq!(ckpt_files(&dir), vec![file_name(0)]);
        drop(file);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
