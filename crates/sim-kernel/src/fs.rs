//! The in-memory filesystem with open-file descriptions.
//!
//! File and directory calls make up three of the paper's twelve functional
//! groupings (File/Directory Access, I/O Primitives, C file I/O), so the
//! substrate needs a real filesystem: hierarchical directories, file
//! attributes, seek offsets, sharing of open-file descriptions between
//! duplicated descriptors, and the full error vocabulary (`ENOENT`,
//! `ENOTDIR`, `EISDIR`, `EEXIST`, `EACCES`, …) that robust implementations
//! return where fragile ones fault.
//!
//! Paths accept both POSIX (`/tmp/x`) and Windows (`C:\tmp\x`) spellings;
//! name lookup is case-insensitive when constructed with
//! [`FileSystem::new_windows`] and case-sensitive with
//! [`FileSystem::new_posix`].

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Filesystem-level errors (mapped to `errno` / `GetLastError` codes by the
/// API personalities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FsError {
    /// Path component does not exist.
    NotFound,
    /// A non-final path component is not a directory.
    NotADirectory,
    /// Directory used where a file was required.
    IsADirectory,
    /// Target already exists.
    Exists,
    /// Write to a read-only file, or similar permission trouble.
    AccessDenied,
    /// Bad open-file-description id.
    BadDescriptor,
    /// Descriptor not opened for the attempted direction.
    BadAccessMode,
    /// Empty path, embedded NUL, or other malformed name.
    InvalidPath,
    /// Directory not empty on remove.
    NotEmpty,
    /// Seek before the start of the file.
    InvalidSeek,
    /// The file is open and the operation requires exclusivity.
    SharingViolation,
    /// The per-process open-file limit is exhausted (`EMFILE` /
    /// `ERROR_TOO_MANY_OPEN_FILES`) — only reported when a limit is set,
    /// e.g. by the heavy-load testing extension.
    TooManyOpen,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "is a directory",
            FsError::Exists => "file exists",
            FsError::AccessDenied => "permission denied",
            FsError::BadDescriptor => "bad file descriptor",
            FsError::BadAccessMode => "descriptor not open for this access",
            FsError::InvalidPath => "invalid path",
            FsError::NotEmpty => "directory not empty",
            FsError::InvalidSeek => "invalid seek",
            FsError::SharingViolation => "sharing violation",
            FsError::TooManyOpen => "too many open files",
        };
        f.write_str(s)
    }
}

impl Error for FsError {}

/// Per-file metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[derive(Default)]
pub struct FileAttrs {
    /// Read-only bit (`FILE_ATTRIBUTE_READONLY` / mode `0444`).
    pub readonly: bool,
    /// Creation time, simulated-clock milliseconds.
    pub created_ms: u64,
    /// Last-modification time, simulated-clock milliseconds.
    pub modified_ms: u64,
}


/// Metadata returned by [`FileSystem::stat`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stat {
    /// Directory or regular file.
    pub is_dir: bool,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// Attributes.
    pub attrs: FileAttrs,
    /// Stable node id (inode analogue).
    pub node_id: u64,
}

#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
enum Node {
    File {
        content: Vec<u8>,
        attrs: FileAttrs,
    },
    Dir {
        children: BTreeMap<String, u64>,
        attrs: FileAttrs,
    },
}

impl Clone for Node {
    fn clone(&self) -> Self {
        match self {
            Node::File { content, attrs } => Node::File {
                content: content.clone(),
                attrs: *attrs,
            },
            Node::Dir { children, attrs } => Node::Dir {
                children: children.clone(),
                attrs: *attrs,
            },
        }
    }

    /// Copies `source` into `self` keeping `self`'s storage: a file's
    /// content is refilled in its own buffer, and a directory drops the
    /// names `source` lacks and allocates only for names it misses. A
    /// case that created and removed the same file leaves its directory
    /// equal to the image's, so resetting it allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (
                Node::File { content, attrs },
                Node::File {
                    content: c,
                    attrs: a,
                },
            ) => {
                content.clone_from(c);
                *attrs = *a;
            }
            (
                Node::Dir { children, attrs },
                Node::Dir {
                    children: c,
                    attrs: a,
                },
            ) => {
                children.retain(|name, _| c.contains_key(name));
                for (name, &id) in c {
                    match children.get_mut(name) {
                        Some(slot) => *slot = id,
                        None => {
                            children.insert(name.clone(), id);
                        }
                    }
                }
                *attrs = *a;
            }
            (this, source) => *this = source.clone(),
        }
    }
}

/// How to open a file. A small builder mirroring the union of `open(2)`
/// flags and `CreateFile` dispositions.
///
/// # Example
///
/// ```
/// use sim_kernel::fs::OpenOptions;
///
/// let opts = OpenOptions::read_write().create(true).truncate(true);
/// assert!(opts.write && opts.create && opts.truncate);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[allow(missing_docs)] // the flag fields mirror open(2) flags 1:1
pub struct OpenOptions {
    pub read: bool,
    pub write: bool,
    pub append: bool,
    pub create: bool,
    pub create_new: bool,
    pub truncate: bool,
}

impl OpenOptions {
    /// Read-only access.
    #[must_use]
    pub fn read_only() -> Self {
        OpenOptions {
            read: true,
            ..Self::default()
        }
    }

    /// Write-only access.
    #[must_use]
    pub fn write_only() -> Self {
        OpenOptions {
            write: true,
            ..Self::default()
        }
    }

    /// Read + write access.
    #[must_use]
    pub fn read_write() -> Self {
        OpenOptions {
            read: true,
            write: true,
            ..Self::default()
        }
    }

    /// Create the file if missing.
    #[must_use]
    pub fn create(mut self, yes: bool) -> Self {
        self.create = yes;
        self
    }

    /// Fail if the file already exists (`O_EXCL` / `CREATE_NEW`).
    #[must_use]
    pub fn create_new(mut self, yes: bool) -> Self {
        self.create_new = yes;
        self.create |= yes;
        self
    }

    /// Truncate on open.
    #[must_use]
    pub fn truncate(mut self, yes: bool) -> Self {
        self.truncate = yes;
        self
    }

    /// Append mode: every write goes to end-of-file.
    #[must_use]
    pub fn append(mut self, yes: bool) -> Self {
        self.append = yes;
        self.write = true;
        self
    }
}

/// Where a seek is measured from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeekFrom {
    /// From offset 0.
    Start(u64),
    /// From the current position.
    Current(i64),
    /// From end-of-file.
    End(i64),
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct OpenFile {
    node: u64,
    offset: u64,
    opts: OpenOptions,
}

/// Identifier of an open-file description.
pub type OfdId = u64;

/// One recorded persistence-relevant filesystem mutation — a crash point
/// candidate for the bounded crash-consistency campaign (`ballista::crashcon`,
/// after B3's bounded black-box crash testing). Ops are recorded only while
/// [`FileSystem::set_crash_recording`] is on, only *after* the mutation
/// succeeded, and always with normalized paths (case-folded, drive letter
/// stripped, `.`/`..` resolved), so replaying the log onto a pristine
/// filesystem is spelling-independent. `at_ms` is the filesystem clock at the
/// time of the op — the kernel drives that clock from the fuel meter, which is
/// what makes crash points deterministic across hosts and engines.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FsOp {
    /// A regular file came into existence with `content`.
    CreateFile {
        /// Normalized absolute path.
        path: String,
        /// Initial content (usually empty — `open(create)` path).
        content: Vec<u8>,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// A directory was created.
    Mkdir {
        /// Normalized absolute path.
        path: String,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// An empty directory was removed.
    Rmdir {
        /// Normalized absolute path.
        path: String,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// A regular file was removed.
    Unlink {
        /// Normalized absolute path.
        path: String,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// A file or directory moved. The two-step remove-then-insert inside
    /// [`FileSystem::rename`] is exactly the non-atomicity window the
    /// crashcon rename oracle probes.
    Rename {
        /// Normalized source path.
        from: String,
        /// Normalized destination path.
        to: String,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// The read-only attribute changed.
    SetReadonly {
        /// Normalized absolute path.
        path: String,
        /// New read-only state.
        readonly: bool,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// An existing file was truncated to zero length (`open` with
    /// `truncate`).
    Truncate {
        /// Normalized absolute path.
        path: String,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// Bytes were written through an open-file description. `offset` is the
    /// *effective* offset (append mode already resolved to end-of-file), so
    /// replay needs no descriptor state.
    Write {
        /// Normalized absolute path of the file behind the descriptor.
        path: String,
        /// Effective byte offset the write landed at.
        offset: u64,
        /// The bytes written.
        data: Vec<u8>,
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
    /// A durability barrier: [`FileSystem::flush`], or the implicit flush
    /// when a descriptor that was open for writing is closed. Everything
    /// recorded before a barrier must survive any later crash (the
    /// prefix-durability oracle); only ops after the last barrier are
    /// eligible for bounded reordering.
    Barrier {
        /// Fuel-clock timestamp.
        at_ms: u64,
    },
}

impl FsOp {
    /// The op's fuel-clock timestamp.
    #[must_use]
    pub fn at_ms(&self) -> u64 {
        match self {
            FsOp::CreateFile { at_ms, .. }
            | FsOp::Mkdir { at_ms, .. }
            | FsOp::Rmdir { at_ms, .. }
            | FsOp::Unlink { at_ms, .. }
            | FsOp::Rename { at_ms, .. }
            | FsOp::SetReadonly { at_ms, .. }
            | FsOp::Truncate { at_ms, .. }
            | FsOp::Write { at_ms, .. }
            | FsOp::Barrier { at_ms } => *at_ms,
        }
    }

    /// Whether this op is a durability barrier.
    #[must_use]
    pub fn is_barrier(&self) -> bool {
        matches!(self, FsOp::Barrier { .. })
    }
}

/// Hard cap on recorded ops per recording window. A runaway MuT writing in a
/// loop would otherwise make crash-point enumeration quadratic in an
/// unbounded log; B3's whole premise is that a *bounded* workload suffices.
/// Recording past the cap is dropped (the log is marked truncated).
pub const MAX_OPLOG: usize = 256;

/// Longest path component folded on the stack: a Windows name's longest
/// component (255 bytes) fits.
const NAME_BUF: usize = 256;

/// A path's normalized components, streamed and borrowed from the path:
/// empty and `.` components are dropped, and a `..` cancels the component
/// before it (stopping at the root, as real kernels do).
struct Components<'a> {
    /// The path not yet walked, drive letter stripped.
    rest: &'a str,
    /// Whether the path may hold a `..`, so that a component has to look
    /// ahead for the one that cancels it.
    dotdot: bool,
}

/// `s` split at its first separator: the first component and the rest.
fn split_first(s: &str) -> (&str, &str) {
    match s.find(['/', '\\']) {
        Some(i) => (&s[..i], &s[i + 1..]),
        None => (s, ""),
    }
}

/// Whether a `..` in `rest` cancels the component just before `rest`:
/// scanning on, every later name pushes one level and every `..` pops
/// one, and the component is cancelled by the first `..` that finds
/// nothing of its own to pop.
fn cancelled(mut rest: &str) -> bool {
    let mut depth = 0usize;
    while !rest.is_empty() {
        let (raw, tail) = split_first(rest);
        rest = tail;
        match raw {
            "" | "." => {}
            ".." if depth == 0 => return true,
            ".." => depth -= 1,
            _ => depth += 1,
        }
    }
    false
}

impl<'a> Iterator for Components<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        while !self.rest.is_empty() {
            let (raw, rest) = split_first(self.rest);
            self.rest = rest;
            match raw {
                "" | "." | ".." => {}
                _ if self.dotdot && cancelled(rest) => {}
                name => return Some(name),
            }
        }
        None
    }
}

/// The in-memory filesystem.
///
/// See the [module documentation](self) for scope and an example on the
/// crate root.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileSystem {
    nodes: Vec<Option<Node>>,
    open: BTreeMap<OfdId, OpenFile>,
    next_ofd: OfdId,
    case_insensitive: bool,
    now_ms: u64,
    open_limit: Option<usize>,
    /// Structural-mutation counter. Bumped at the top of every mutator that
    /// can change nodes, open descriptions or limits — but *not* by
    /// [`FileSystem::set_now_ms`], which the kernel calls on every simulated
    /// call and which the snapshot layer restores as a scalar. Two
    /// filesystems cloned from the same image with equal generations are
    /// structurally identical, which is what lets
    /// `MachineSnapshot::restore_into` skip the node reset
    /// ([`FileSystem::reset_from`]). Defaults to 0 on deserialization.
    #[serde(default)]
    gen: u64,
    /// Descriptor-table mutation counter: bumped by operations that touch
    /// only `open` / `next_ofd` (open, close, read's offset advance, seek,
    /// dup) and not the node tree. Restoring this dirt needs only
    /// [`FileSystem::reset_open_from`] — a clone of the (tiny) open table —
    /// and no node reset, which is what makes read-heavy test cases cheap
    /// to reset. Defaults to 0 on deserialization.
    #[serde(default)]
    open_gen: u64,
    /// Ids of the nodes changed since the last [`FileSystem::mark_clean`],
    /// each once, in touch order: the dirty-node journal, the counterpart
    /// of the address space's dirty-region journal. [`FileSystem::touch`]
    /// notes a mutator's nodes *before* the mutation, and
    /// [`FileSystem::reset_from`] copies exactly those back from the
    /// baseline. A node appended since needs no note: the reset truncates
    /// it. Restore bookkeeping like the generations, so not compared.
    #[serde(default)]
    dirty: Vec<u64>,
    /// Crash-op recording switch. Off by default; the crashcon engine turns
    /// it on per case and drains the log afterwards. Not compared by
    /// `PartialEq` and not part of the durable image — it is harness
    /// bookkeeping, like the generation counters.
    #[serde(default)]
    recording: bool,
    /// The recorded op log (empty unless `recording` was on).
    #[serde(default)]
    oplog: Vec<FsOp>,
    /// Whether the log hit [`MAX_OPLOG`] and dropped ops.
    #[serde(default)]
    oplog_truncated: bool,
}

/// Equality is structural — the generation counter and timestamp source are
/// restore bookkeeping, not filesystem state (`now_ms` *is* compared, since
/// it feeds the timestamps future operations will record).
impl PartialEq for FileSystem {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.open == other.open
            && self.next_ofd == other.next_ofd
            && self.case_insensitive == other.case_insensitive
            && self.now_ms == other.now_ms
            && self.open_limit == other.open_limit
    }
}

impl Eq for FileSystem {}

impl FileSystem {
    fn with_case(case_insensitive: bool) -> Self {
        let root = Node::Dir {
            children: BTreeMap::new(),
            attrs: FileAttrs::default(),
        };
        FileSystem {
            nodes: vec![Some(root)],
            open: BTreeMap::new(),
            next_ofd: 3, // leave room for std streams
            case_insensitive,
            now_ms: 0,
            open_limit: None,
            gen: 0,
            open_gen: 0,
            dirty: Vec::new(),
            recording: false,
            oplog: Vec::new(),
            oplog_truncated: false,
        }
    }

    /// Turns crash-op recording on or off. Turning it on clears any stale
    /// log so each recording window observes exactly one case.
    pub fn set_crash_recording(&mut self, on: bool) {
        self.recording = on;
        if on {
            self.oplog.clear();
            self.oplog_truncated = false;
        }
    }

    /// Whether crash-op recording is currently on.
    #[must_use]
    pub fn crash_recording(&self) -> bool {
        self.recording
    }

    /// Drains the recorded op log, returning it together with the
    /// truncation flag (`true` when [`MAX_OPLOG`] dropped ops).
    pub fn take_oplog(&mut self) -> (Vec<FsOp>, bool) {
        let truncated = self.oplog_truncated;
        self.oplog_truncated = false;
        (std::mem::take(&mut self.oplog), truncated)
    }

    /// Appends a recorded op, honoring the [`MAX_OPLOG`] bound. The closure
    /// keeps the (allocating) op construction off the hot path when
    /// recording is off — every mutator pays one branch and nothing else.
    fn record(&mut self, op: impl FnOnce(&FileSystem) -> Option<FsOp>) {
        if !self.recording {
            return;
        }
        if self.oplog.len() >= MAX_OPLOG {
            self.oplog_truncated = true;
            return;
        }
        // Re-borrow immutably for path normalization inside the closure.
        let this: &FileSystem = self;
        if let Some(op) = op(this) {
            self.oplog.push(op);
        }
    }

    /// Normalizes `path` to the canonical absolute spelling recorded in
    /// [`FsOp`]s: case-folded on case-insensitive filesystems, drive letter
    /// stripped, `.`/`..` resolved, components joined with `/`. Returns
    /// `None` for invalid paths (which cannot have passed a mutator's
    /// validation anyway).
    #[must_use]
    pub fn normalize_path(&self, path: &str) -> Option<String> {
        let mut out = String::with_capacity(path.len() + 1);
        for part in self.components(path).ok()? {
            out.push('/');
            let start = out.len();
            out.push_str(part);
            if self.case_insensitive {
                out[start..].make_ascii_lowercase();
            }
        }
        if out.is_empty() {
            out.push('/');
        }
        Some(out)
    }

    /// Resolves the normalized path of a live node by walking from the
    /// root — recording-path only (descriptor-based ops need a path for
    /// replay). Returns `None` for unreachable (unlinked-while-open) nodes,
    /// whose writes cannot survive into any remounted image anyway.
    fn path_of_node(&self, target: u64) -> Option<String> {
        fn walk(fs: &FileSystem, cur: u64, target: u64, acc: &mut String) -> bool {
            if cur == target {
                if acc.is_empty() {
                    acc.push('/');
                }
                return true;
            }
            if let Some(Node::Dir { children, .. }) = &fs.nodes[cur as usize] {
                for (name, &id) in children {
                    let len = acc.len();
                    acc.push('/');
                    acc.push_str(name);
                    if walk(fs, id, target, acc) {
                        return true;
                    }
                    acc.truncate(len);
                }
            }
            false
        }
        let mut acc = String::new();
        walk(self, 0, target, &mut acc).then_some(acc)
    }

    /// Current structural generation (see the field documentation).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Marks the filesystem structurally dirty and notes `nodes`, the
    /// existing nodes the mutation is about to change, in the dirty-node
    /// journal. Called by every mutator *after* validation but *before*
    /// the first mutating statement, so an operation interrupted by a
    /// panic still registers as dirty while a call that fails validation
    /// leaves the generation — and therefore the batched campaign's
    /// restore cost — untouched. (Most hostile test cases fail
    /// validation; skipping the bump is what lets the resident machine
    /// skip the filesystem reset entirely.) The nodes a mutator notes:
    /// the parent directory on create and mkdir; the parent and the
    /// removed node on rmdir and unlink; both parents on rename; the file
    /// itself on write, truncating open and set-readonly.
    fn touch(&mut self, nodes: &[u64]) {
        self.gen = self.gen.wrapping_add(1);
        for &id in nodes {
            if !self.dirty.contains(&id) {
                self.dirty.push(id);
            }
        }
    }

    /// Declares the current state pristine: later mutations start a new
    /// dirty-node journal. Called when a machine image is captured as a
    /// restore baseline.
    pub fn mark_clean(&mut self) {
        self.dirty.clear();
    }

    /// Resets this filesystem to `baseline` node by node, in O(touched).
    ///
    /// `self` must have started as a clone of `baseline` (the resident
    /// machine of a batched campaign, reset between test cases). The
    /// nodes the dirty-node journal names are copied back in place with
    /// `clone_from`, the nodes appended since are truncated away (node
    /// ids are never reused, so the baseline's nodes are a prefix), and
    /// the descriptor table, the scalars and the crash-op recorder are
    /// restored whole.
    pub fn reset_from(&mut self, baseline: &FileSystem) {
        while let Some(id) = self.dirty.pop() {
            if let (Some(live), Some(base)) = (
                self.nodes.get_mut(id as usize),
                baseline.nodes.get(id as usize),
            ) {
                live.clone_from(base);
            }
        }
        self.nodes.truncate(baseline.nodes.len());
        self.reset_open_from(baseline);
        self.now_ms = baseline.now_ms;
        self.open_limit = baseline.open_limit;
        self.gen = baseline.gen;
        self.recording = baseline.recording;
        self.oplog.clone_from(&baseline.oplog);
        self.oplog_truncated = baseline.oplog_truncated;
    }

    /// Current descriptor-table generation (see the field documentation).
    #[must_use]
    pub fn open_generation(&self) -> u64 {
        self.open_gen
    }

    /// Marks the descriptor table dirty — the counterpart of
    /// [`FileSystem::touch`] for mutations confined to `open` /
    /// `next_ofd`. Same placement rule: after validation, before the
    /// first mutating statement.
    fn touch_open(&mut self) {
        self.open_gen = self.open_gen.wrapping_add(1);
    }

    /// Resets the descriptor table — `open`, `next_ofd` and the
    /// descriptor generation — to `baseline`'s, leaving the node tree
    /// alone. On its own it is sound only when the node generations
    /// already match (i.e. the only filesystem dirt is descriptor-table
    /// dirt); the snapshot layer checks that before calling this instead
    /// of [`FileSystem::reset_from`].
    pub fn reset_open_from(&mut self, baseline: &FileSystem) {
        self.open.clear();
        self.open
            .extend(baseline.open.iter().map(|(k, v)| (*k, v.clone())));
        self.next_ofd = baseline.next_ofd;
        self.open_gen = baseline.open_gen;
    }

    /// The filesystem's current notion of time (for snapshot restore).
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// A case-sensitive filesystem (the Linux target).
    #[must_use]
    pub fn new_posix() -> Self {
        Self::with_case(false)
    }

    /// A case-insensitive filesystem (the Windows targets).
    #[must_use]
    pub fn new_windows() -> Self {
        Self::with_case(true)
    }

    /// Advances the filesystem's notion of time (drives timestamps).
    pub fn set_now_ms(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
    }

    /// Caps the number of simultaneously open file descriptions (`None` =
    /// unlimited, the default). Used by the heavy-load testing extension
    /// to make descriptor exhaustion observable.
    pub fn set_open_limit(&mut self, limit: Option<usize>) {
        self.touch(&[]);
        self.open_limit = limit;
    }

    fn at_open_limit(&self) -> bool {
        self.open_limit.is_some_and(|l| self.open.len() >= l)
    }

    /// `name` case-folded for lookup: borrowed as is when folding changes
    /// nothing (case-sensitive filesystems, and names without upper case
    /// on case-insensitive ones), else folded into `buf`, and into a
    /// `String` only when it is longer than `buf`. Resolution is the
    /// hottest filesystem path in a campaign, and `C:\TEMP` or
    /// `POOLFILE.TMP` would otherwise cost an allocation per component
    /// per lookup.
    fn fold<'b>(&self, name: &'b str, buf: &'b mut [u8; NAME_BUF]) -> Cow<'b, str> {
        if !self.case_insensitive || !name.bytes().any(|b| b.is_ascii_uppercase()) {
            return Cow::Borrowed(name);
        }
        match buf.get_mut(..name.len()) {
            Some(slot) => {
                slot.copy_from_slice(name.as_bytes());
                slot.make_ascii_lowercase();
                let slot: &'b [u8] = slot;
                Cow::Borrowed(std::str::from_utf8(slot).expect("ASCII folding keeps UTF-8"))
            }
            None => Cow::Owned(name.to_ascii_lowercase()),
        }
    }

    /// The normalized components of `path`, streamed and borrowed from
    /// it, not yet case-folded.
    fn components<'a>(&self, path: &'a str) -> Result<Components<'a>, FsError> {
        if path.is_empty() || path.contains('\0') {
            return Err(FsError::InvalidPath);
        }
        // Strip drive letter ("C:") if present.
        let body = match path.as_bytes() {
            [d, b':', rest @ ..] if d.is_ascii_alphabetic() => {
                std::str::from_utf8(rest).expect("sliced at byte boundary")
            }
            _ => path,
        };
        Ok(Components {
            rest: body,
            dotdot: body.contains(".."),
        })
    }

    /// Splits a path into normalized components. Accepts `/a/b`, `C:\a\b`,
    /// `a\b`, and mixed separators; `.` components are dropped and `..`
    /// pops (stopping at the root, as real kernels do).
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidPath`] for empty paths or embedded NULs.
    pub fn split_path(&self, path: &str) -> Result<Vec<String>, FsError> {
        let mut buf = [0u8; NAME_BUF];
        Ok(self
            .components(path)?
            .map(|raw| self.fold(raw, &mut buf).into_owned())
            .collect())
    }

    /// The id of directory `dir`'s child `name` (already folded).
    fn child(&self, dir: u64, name: &str) -> Result<u64, FsError> {
        match self.nodes[dir as usize].as_ref().ok_or(FsError::NotFound)? {
            Node::Dir { children, .. } => children.get(name).copied().ok_or(FsError::NotFound),
            Node::File { .. } => Err(FsError::NotADirectory),
        }
    }

    fn lookup(&self, path: &str) -> Result<u64, FsError> {
        let mut buf = [0u8; NAME_BUF];
        let mut cur = 0u64;
        for raw in self.components(path)? {
            cur = self.child(cur, &self.fold(raw, &mut buf))?;
        }
        Ok(cur)
    }

    /// Resolves the parent directory of `path`, returning `(parent_id,
    /// final_component)`, the final component case-folded into `buf`
    /// when folding changes it.
    fn lookup_parent<'p>(
        &self,
        path: &'p str,
        buf: &'p mut [u8; NAME_BUF],
    ) -> Result<(u64, Cow<'p, str>), FsError> {
        let mut parts = self.components(path)?;
        let mut last = parts.next().ok_or(FsError::InvalidPath)?;
        let mut cur = 0u64;
        for next in parts {
            cur = self.child(cur, &self.fold(last, buf))?;
            last = next;
        }
        match self.nodes[cur as usize] {
            Some(Node::Dir { .. }) => Ok((cur, self.fold(last, buf))),
            _ => Err(FsError::NotADirectory),
        }
    }

    fn alloc_node(&mut self, node: Node) -> u64 {
        self.nodes.push(Some(node));
        (self.nodes.len() - 1) as u64
    }

    /// Whether `path` names an existing file or directory.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// Creates a regular file with `content`, creating no directories.
    /// Overwrites nothing.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the name is taken, plus path-resolution
    /// errors.
    pub fn create_file(&mut self, path: &str, content: Vec<u8>) -> Result<(), FsError> {
        let mut buf = [0u8; NAME_BUF];
        let (parent, name) = self.lookup_parent(path, &mut buf)?;
        let attrs = FileAttrs {
            readonly: false,
            created_ms: self.now_ms,
            modified_ms: self.now_ms,
        };
        let Some(Node::Dir { children, .. }) = &self.nodes[parent as usize] else {
            return Err(FsError::NotADirectory);
        };
        if children.contains_key(name.as_ref()) {
            return Err(FsError::Exists);
        }
        self.touch(&[parent]);
        self.record(|fs| {
            Some(FsOp::CreateFile {
                path: fs.normalize_path(path)?,
                content: content.clone(),
                at_ms: fs.now_ms,
            })
        });
        let id = self.alloc_node(Node::File { content, attrs });
        let Some(Node::Dir { children, .. }) = &mut self.nodes[parent as usize] else {
            unreachable!("checked above");
        };
        children.insert(name.into_owned(), id);
        Ok(())
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the name is taken, plus path-resolution
    /// errors.
    pub fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        let mut buf = [0u8; NAME_BUF];
        let (parent, name) = self.lookup_parent(path, &mut buf)?;
        let Some(Node::Dir { children, .. }) = &self.nodes[parent as usize] else {
            return Err(FsError::NotADirectory);
        };
        if children.contains_key(name.as_ref()) {
            return Err(FsError::Exists);
        }
        self.touch(&[parent]);
        self.record(|fs| {
            Some(FsOp::Mkdir {
                path: fs.normalize_path(path)?,
                at_ms: fs.now_ms,
            })
        });
        let attrs = FileAttrs {
            readonly: false,
            created_ms: self.now_ms,
            modified_ms: self.now_ms,
        };
        let id = self.alloc_node(Node::Dir {
            children: BTreeMap::new(),
            attrs,
        });
        let Some(Node::Dir { children, .. }) = &mut self.nodes[parent as usize] else {
            unreachable!("checked above");
        };
        children.insert(name.into_owned(), id);
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] for non-empty directories,
    /// [`FsError::NotADirectory`] for files, plus resolution errors.
    pub fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        let mut buf = [0u8; NAME_BUF];
        let (parent, name) = self.lookup_parent(path, &mut buf)?;
        let Some(Node::Dir { children, .. }) = &self.nodes[parent as usize] else {
            return Err(FsError::NotADirectory);
        };
        let id = *children.get(name.as_ref()).ok_or(FsError::NotFound)?;
        match &self.nodes[id as usize] {
            Some(Node::Dir { children: c, .. }) if !c.is_empty() => return Err(FsError::NotEmpty),
            Some(Node::Dir { .. }) => {}
            _ => return Err(FsError::NotADirectory),
        }
        self.touch(&[parent, id]);
        self.record(|fs| {
            Some(FsOp::Rmdir {
                path: fs.normalize_path(path)?,
                at_ms: fs.now_ms,
            })
        });
        let Some(Node::Dir { children, .. }) = &mut self.nodes[parent as usize] else {
            unreachable!("checked above");
        };
        children.remove(name.as_ref());
        self.nodes[id as usize] = None;
        Ok(())
    }

    /// Removes a regular file.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories,
    /// [`FsError::AccessDenied`] for read-only files, plus resolution
    /// errors.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let mut buf = [0u8; NAME_BUF];
        let (parent, name) = self.lookup_parent(path, &mut buf)?;
        let Some(Node::Dir { children, .. }) = &self.nodes[parent as usize] else {
            return Err(FsError::NotADirectory);
        };
        let id = *children.get(name.as_ref()).ok_or(FsError::NotFound)?;
        match &self.nodes[id as usize] {
            Some(Node::File { attrs, .. }) => {
                if attrs.readonly {
                    return Err(FsError::AccessDenied);
                }
            }
            Some(Node::Dir { .. }) => return Err(FsError::IsADirectory),
            None => return Err(FsError::NotFound),
        }
        self.touch(&[parent, id]);
        self.record(|fs| {
            Some(FsOp::Unlink {
                path: fs.normalize_path(path)?,
                at_ms: fs.now_ms,
            })
        });
        let Some(Node::Dir { children, .. }) = &mut self.nodes[parent as usize] else {
            unreachable!("checked above");
        };
        children.remove(name.as_ref());
        self.nodes[id as usize] = None;
        Ok(())
    }

    /// Renames/moves a file or directory.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] when the destination is taken, plus resolution
    /// errors on either path.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        let (mut from_buf, mut to_buf) = ([0u8; NAME_BUF], [0u8; NAME_BUF]);
        let (from_parent, from_name) = self.lookup_parent(from, &mut from_buf)?;
        let (to_parent, to_name) = self.lookup_parent(to, &mut to_buf)?;
        let Some(Node::Dir { children, .. }) = &self.nodes[from_parent as usize] else {
            return Err(FsError::NotADirectory);
        };
        let id = *children.get(from_name.as_ref()).ok_or(FsError::NotFound)?;
        let Some(Node::Dir { children, .. }) = &self.nodes[to_parent as usize] else {
            return Err(FsError::NotADirectory);
        };
        if children.contains_key(to_name.as_ref()) {
            return Err(FsError::Exists);
        }
        // Renaming a directory into its own subtree (or onto itself) would
        // detach it from the root and leave an orphaned cycle. Real kernels
        // reject this before touching anything (POSIX `EINVAL`, Windows
        // `ERROR_SHARING_VIOLATION`); paths are compared case-folded so the
        // guard matches lookup semantics on case-insensitive variants.
        if matches!(self.nodes[id as usize], Some(Node::Dir { .. })) {
            let nf = self.normalize_path(from).ok_or(FsError::InvalidPath)?;
            let nt = self.normalize_path(to).ok_or(FsError::InvalidPath)?;
            if nt == nf || nt.starts_with(&format!("{nf}/")) {
                return Err(FsError::InvalidPath);
            }
        }
        self.touch(&[from_parent, to_parent]);
        self.record(|fs| {
            Some(FsOp::Rename {
                from: fs.normalize_path(from)?,
                to: fs.normalize_path(to)?,
                at_ms: fs.now_ms,
            })
        });
        let Some(Node::Dir { children, .. }) = &mut self.nodes[from_parent as usize] else {
            unreachable!("checked above");
        };
        children.remove(from_name.as_ref());
        let Some(Node::Dir { children, .. }) = &mut self.nodes[to_parent as usize] else {
            unreachable!("checked above");
        };
        children.insert(to_name.into_owned(), id);
        Ok(())
    }

    /// Metadata for `path`.
    ///
    /// # Errors
    ///
    /// Path-resolution errors.
    pub fn stat(&self, path: &str) -> Result<Stat, FsError> {
        let id = self.lookup(path)?;
        Ok(self.stat_node(id))
    }

    fn stat_node(&self, id: u64) -> Stat {
        match self.nodes[id as usize].as_ref().expect("live node") {
            Node::File { content, attrs } => Stat {
                is_dir: false,
                size: content.len() as u64,
                attrs: *attrs,
                node_id: id,
            },
            Node::Dir { attrs, .. } => Stat {
                is_dir: true,
                size: 0,
                attrs: *attrs,
                node_id: id,
            },
        }
    }

    /// Sets or clears the read-only attribute.
    ///
    /// # Errors
    ///
    /// Path-resolution errors.
    pub fn set_readonly(&mut self, path: &str, readonly: bool) -> Result<(), FsError> {
        let id = self.lookup(path)?;
        self.touch(&[id]);
        self.record(|fs| {
            Some(FsOp::SetReadonly {
                path: fs.normalize_path(path)?,
                readonly,
                at_ms: fs.now_ms,
            })
        });
        match self.nodes[id as usize].as_mut().expect("live node") {
            Node::File { attrs, .. } | Node::Dir { attrs, .. } => attrs.readonly = readonly,
        }
        Ok(())
    }

    /// Lists the names in a directory, sorted.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] for files, plus resolution errors.
    pub fn list_dir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let id = self.lookup(path)?;
        match self.nodes[id as usize].as_ref().expect("live node") {
            Node::Dir { children, .. } => Ok(children.keys().cloned().collect()),
            Node::File { .. } => Err(FsError::NotADirectory),
        }
    }

    /// Opens a file, returning an open-file-description id.
    ///
    /// # Errors
    ///
    /// The usual `open(2)` error vocabulary: [`FsError::NotFound`] without
    /// `create`, [`FsError::Exists`] with `create_new`,
    /// [`FsError::IsADirectory`], [`FsError::AccessDenied`] for writing a
    /// read-only file, plus resolution errors.
    pub fn open(&mut self, path: &str, opts: OpenOptions) -> Result<OfdId, FsError> {
        if !opts.read && !opts.write {
            return Err(FsError::BadAccessMode);
        }
        if self.at_open_limit() {
            return Err(FsError::TooManyOpen);
        }
        let node_id = match self.lookup(path) {
            Ok(id) => {
                if opts.create_new {
                    return Err(FsError::Exists);
                }
                id
            }
            Err(FsError::NotFound) if opts.create => {
                self.create_file(path, Vec::new())?;
                self.lookup(path)?
            }
            Err(e) => return Err(e),
        };
        match self.nodes[node_id as usize].as_ref().expect("live node") {
            Node::Dir { .. } => return Err(FsError::IsADirectory),
            Node::File { attrs, .. } => {
                if opts.write && attrs.readonly {
                    return Err(FsError::AccessDenied);
                }
            }
        }
        if opts.truncate && opts.write {
            self.touch(&[node_id]);
            self.record(|fs| {
                Some(FsOp::Truncate {
                    path: fs.normalize_path(path)?,
                    at_ms: fs.now_ms,
                })
            });
            let now = self.now_ms;
            let Some(Node::File { content, attrs }) = self.nodes[node_id as usize].as_mut() else {
                unreachable!("checked above");
            };
            content.clear();
            attrs.modified_ms = now;
        }
        self.touch_open();
        let ofd = self.next_ofd;
        self.next_ofd += 1;
        self.open.insert(
            ofd,
            OpenFile {
                node: node_id,
                offset: 0,
                opts,
            },
        );
        Ok(ofd)
    }

    /// Closes an open-file description.
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] for unknown ids.
    pub fn close(&mut self, ofd: OfdId) -> Result<(), FsError> {
        let Some(of) = self.open.get(&ofd) else {
            return Err(FsError::BadDescriptor);
        };
        // Closing a descriptor that was open for writing is an implicit
        // durability barrier (fsync-on-close semantics), recorded for the
        // crashcon prefix-durability oracle.
        let flushes = of.opts.write;
        self.touch_open();
        self.open.remove(&ofd);
        if flushes {
            self.record(|fs| Some(FsOp::Barrier { at_ms: fs.now_ms }));
        }
        Ok(())
    }

    /// Flushes an open-file description: a durability barrier with no other
    /// observable effect. Everything written before the barrier must survive
    /// any crash simulated after it (the crashcon prefix-durability oracle).
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] for unknown ids.
    pub fn flush(&mut self, ofd: OfdId) -> Result<(), FsError> {
        if !self.open.contains_key(&ofd) {
            return Err(FsError::BadDescriptor);
        }
        self.record(|fs| Some(FsOp::Barrier { at_ms: fs.now_ms }));
        Ok(())
    }

    /// Whether `ofd` names a live open-file description.
    #[must_use]
    pub fn is_open(&self, ofd: OfdId) -> bool {
        self.open.contains_key(&ofd)
    }

    /// Reads from the current offset into `buf`, returning the byte count
    /// (0 at end-of-file).
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] / [`FsError::BadAccessMode`].
    pub fn read(&mut self, ofd: OfdId, buf: &mut [u8]) -> Result<usize, FsError> {
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?;
        if !of.opts.read {
            return Err(FsError::BadAccessMode);
        }
        let Some(Node::File { content, .. }) = self.nodes[of.node as usize].as_ref() else {
            return Err(FsError::BadDescriptor);
        };
        let start = (of.offset as usize).min(content.len());
        let n = buf.len().min(content.len() - start);
        buf[..n].copy_from_slice(&content[start..start + n]);
        self.touch_open(); // the open-file offset advances
        self.open.get_mut(&ofd).expect("checked above").offset += n as u64;
        Ok(n)
    }

    /// Writes `data` at the current offset (end-of-file in append mode),
    /// returning the byte count.
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] / [`FsError::BadAccessMode`].
    pub fn write(&mut self, ofd: OfdId, data: &[u8]) -> Result<usize, FsError> {
        let now = self.now_ms;
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?;
        if !of.opts.write {
            return Err(FsError::BadAccessMode);
        }
        let node = of.node;
        if !matches!(self.nodes[node as usize], Some(Node::File { .. })) {
            return Err(FsError::BadDescriptor);
        }
        self.touch(&[node]); // file content and timestamps change...
        self.touch_open(); // ...and the open-file offset advances
        let of = self.open.get_mut(&ofd).expect("checked above");
        let Some(Node::File { content, attrs }) = self.nodes[of.node as usize].as_mut() else {
            unreachable!("checked above");
        };
        if of.opts.append {
            of.offset = content.len() as u64;
        }
        let off = of.offset as usize;
        if off > content.len() {
            content.resize(off, 0); // sparse fill
        }
        let overlap = (content.len() - off).min(data.len());
        content[off..off + overlap].copy_from_slice(&data[..overlap]);
        content.extend_from_slice(&data[overlap..]);
        of.offset += data.len() as u64;
        attrs.modified_ms = now;
        self.record(|fs| {
            Some(FsOp::Write {
                path: fs.path_of_node(node)?,
                offset: off as u64,
                data: data.to_vec(),
                at_ms: fs.now_ms,
            })
        });
        Ok(data.len())
    }

    /// Moves the offset of an open-file description.
    ///
    /// # Errors
    ///
    /// [`FsError::InvalidSeek`] for seeks before offset 0,
    /// [`FsError::BadDescriptor`] for unknown ids.
    pub fn seek(&mut self, ofd: OfdId, from: SeekFrom) -> Result<u64, FsError> {
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?;
        let Some(Node::File { content, .. }) = self.nodes[of.node as usize].as_ref() else {
            return Err(FsError::BadDescriptor);
        };
        let len = content.len() as i64;
        let target = match from {
            SeekFrom::Start(o) => o as i64,
            SeekFrom::Current(d) => of.offset as i64 + d,
            SeekFrom::End(d) => len + d,
        };
        if target < 0 {
            return Err(FsError::InvalidSeek);
        }
        self.touch_open();
        let of = self.open.get_mut(&ofd).expect("checked above");
        of.offset = target as u64;
        Ok(of.offset)
    }

    /// Bytes left between the current offset and end-of-file — the most a
    /// [`FileSystem::read`] on `ofd` can return. Lets callers that would
    /// otherwise zero a caller-sized scratch buffer (`fread` with a wrapped
    /// 32-bit `size * nmemb`, `ReadFile` with a huge byte count) allocate
    /// only what the read can deliver.
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] for unknown ids.
    pub fn available(&self, ofd: OfdId) -> Result<u64, FsError> {
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?;
        let Some(Node::File { content, .. }) = self.nodes[of.node as usize].as_ref() else {
            return Err(FsError::BadDescriptor);
        };
        Ok((content.len() as u64).saturating_sub(of.offset))
    }

    /// Current size of the file behind an open-file description.
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] for unknown ids.
    pub fn size_of(&self, ofd: OfdId) -> Result<u64, FsError> {
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?;
        let Some(Node::File { content, .. }) = self.nodes[of.node as usize].as_ref() else {
            return Err(FsError::BadDescriptor);
        };
        Ok(content.len() as u64)
    }

    /// Stat through an open-file description.
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] for unknown ids.
    pub fn fstat(&self, ofd: OfdId) -> Result<Stat, FsError> {
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?;
        Ok(self.stat_node(of.node))
    }

    /// Number of live open-file descriptions (for leak checks between test
    /// cases).
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Duplicates an open-file description (shares the node, copies the
    /// offset — matching `dup(2)` closely enough for robustness testing).
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] for unknown ids.
    pub fn dup(&mut self, ofd: OfdId) -> Result<OfdId, FsError> {
        if self.at_open_limit() {
            return Err(FsError::TooManyOpen);
        }
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?.clone();
        self.touch_open();
        let id = self.next_ofd;
        self.next_ofd += 1;
        self.open.insert(id, of);
        Ok(id)
    }

    /// Duplicates `ofd` *at* descriptor id `target` (the `dup2(2)`
    /// protocol): any description already open at `target` is closed
    /// first; duplicating onto itself is a no-op.
    ///
    /// # Errors
    ///
    /// [`FsError::BadDescriptor`] when `ofd` is not open.
    pub fn dup_at(&mut self, ofd: OfdId, target: OfdId) -> Result<OfdId, FsError> {
        let of = self.open.get(&ofd).ok_or(FsError::BadDescriptor)?.clone();
        if ofd == target {
            return Ok(target);
        }
        self.touch_open();
        self.open.insert(target, of);
        self.next_ofd = self.next_ofd.max(target + 1);
        Ok(target)
    }

    /// Reads a whole file by path without touching descriptor state (the
    /// crashcon oracle's read path — oracles must not perturb the image
    /// they are judging).
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] for directories, plus resolution errors.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let id = self.lookup(path)?;
        match self.nodes[id as usize].as_ref().expect("live node") {
            Node::File { content, .. } => Ok(content.clone()),
            Node::Dir { .. } => Err(FsError::IsADirectory),
        }
    }

    /// Number of live (allocated, non-freed) nodes, reachable or not.
    /// Compared against [`FileSystem::validate_tree`]'s reachable count by
    /// the crashcon well-formedness oracle to detect orphaned nodes.
    #[must_use]
    pub fn live_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Structurally validates the node tree: every child id must be in
    /// bounds and live, and no node may be reachable twice (aliasing or a
    /// cycle). Returns the reachable node count on success and a
    /// description of the first defect otherwise.
    ///
    /// # Errors
    ///
    /// A human-readable description of the structural defect.
    pub fn validate_tree(&self) -> Result<usize, String> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0u64];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            let idx = id as usize;
            if idx >= self.nodes.len() {
                return Err(format!("child id {id} out of bounds"));
            }
            if seen[idx] {
                return Err(format!("node {id} reachable twice (cycle or aliasing)"));
            }
            seen[idx] = true;
            count += 1;
            match &self.nodes[idx] {
                None => return Err(format!("dangling child id {id}")),
                Some(Node::Dir { children, .. }) => stack.extend(children.values().copied()),
                Some(Node::File { .. }) => {}
            }
        }
        Ok(count)
    }

    /// Whether every open-file description references a live regular file.
    /// A remounted crash image must additionally have an *empty* open
    /// table (descriptors do not survive a crash) — the crashcon oracle
    /// checks both.
    #[must_use]
    pub fn open_table_valid(&self) -> bool {
        self.open.values().all(|of| {
            matches!(
                self.nodes.get(of.node as usize),
                Some(Some(Node::File { .. }))
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_file(path: &str, content: &[u8]) -> FileSystem {
        let mut fs = FileSystem::new_posix();
        fs.create_file(path, content.to_vec()).unwrap();
        fs
    }

    #[test]
    fn create_open_read() {
        let mut fs = fs_with_file("/hello.txt", b"hello world");
        let ofd = fs.open("/hello.txt", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(fs.read(ofd, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(fs.read(ofd, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b" worl");
        fs.close(ofd).unwrap();
        assert!(!fs.is_open(ofd));
    }

    #[test]
    fn windows_paths_and_case_folding() {
        let mut fs = FileSystem::new_windows();
        fs.mkdir("C:\\Temp").unwrap();
        fs.create_file("C:\\Temp\\File.TXT", b"x".to_vec()).unwrap();
        assert!(fs.exists("c:/temp/file.txt"));
        // POSIX flavour stays case-sensitive.
        let mut pfs = FileSystem::new_posix();
        pfs.create_file("/File", vec![]).unwrap();
        assert!(!pfs.exists("/file"));
    }

    #[test]
    fn dotdot_stops_at_root() {
        let fs = FileSystem::new_posix();
        assert_eq!(fs.split_path("/../../etc").unwrap(), vec!["etc"]);
        assert_eq!(fs.split_path("a/./b/../c").unwrap(), vec!["a", "c"]);
    }

    #[test]
    fn streamed_components_match_a_component_stack() {
        // Every path of up to five components over these tokens, joined
        // by either separator, against the stack the walk replaces: a
        // name pushes, `..` pops (a no-op at the root).
        let tokens = ["a", "B", "..", ".", ""];
        let fs = FileSystem::new_windows();
        let mut paths = vec![String::new()];
        for _ in 0..5 {
            let mut longer = Vec::new();
            for p in &paths {
                for (i, t) in tokens.iter().enumerate() {
                    let sep = if i % 2 == 0 { "/" } else { "\\" };
                    longer.push(format!("{p}{sep}{t}"));
                }
            }
            paths.extend(longer);
        }
        for path in paths.iter().filter(|p| !p.is_empty()) {
            let mut stack: Vec<String> = Vec::new();
            for raw in path.split(['/', '\\']) {
                match raw {
                    "" | "." => {}
                    ".." => {
                        stack.pop();
                    }
                    name => stack.push(name.to_ascii_lowercase()),
                }
            }
            assert_eq!(fs.split_path(path).unwrap(), stack, "{path:?}");
        }
    }

    #[test]
    fn dirty_node_journal_resets_exactly_what_changed() {
        let mut base = FileSystem::new_windows();
        base.mkdir("C:\\A").unwrap();
        base.mkdir("C:\\B").unwrap();
        base.create_file("C:\\A\\F.TXT", b"one".to_vec()).unwrap();
        base.mark_clean();
        let mut live = base.clone();
        // Calls that fail validation note nothing.
        assert_eq!(live.mkdir("C:\\A").unwrap_err(), FsError::Exists);
        assert_eq!(live.unlink("C:\\NONE").unwrap_err(), FsError::NotFound);
        assert!(live.dirty.is_empty());
        // A rename notes both parents, a write the file.
        live.rename("C:\\A\\F.TXT", "c:/b/g.txt").unwrap();
        let (a, b) = (live.lookup("C:\\A").unwrap(), live.lookup("C:\\B").unwrap());
        assert_eq!(live.dirty, vec![a, b]);
        let ofd = live
            .open("C:\\B\\G.TXT", OpenOptions::write_only())
            .unwrap();
        live.write(ofd, b"changed").unwrap();
        let f = live.lookup("C:\\B\\G.TXT").unwrap();
        assert_eq!(live.dirty, vec![a, b, f]);
        live.create_file("C:\\B\\NEW", vec![1]).unwrap();
        live.set_open_limit(Some(1));
        live.reset_from(&base);
        assert_eq!(live, base);
        assert!(live.dirty.is_empty());
        assert!(live.exists("C:\\A\\F.TXT"));
        assert!(!live.exists("C:\\B\\NEW"));
        assert_eq!(live.read_file("C:\\A\\F.TXT").unwrap(), b"one");
    }

    #[test]
    fn invalid_paths_rejected() {
        let fs = FileSystem::new_posix();
        assert_eq!(fs.split_path("").unwrap_err(), FsError::InvalidPath);
        assert_eq!(fs.split_path("a\0b").unwrap_err(), FsError::InvalidPath);
    }

    #[test]
    fn open_missing_without_create_fails() {
        let mut fs = FileSystem::new_posix();
        assert_eq!(
            fs.open("/nope", OpenOptions::read_only()).unwrap_err(),
            FsError::NotFound
        );
        let ofd = fs
            .open("/nope", OpenOptions::read_write().create(true))
            .unwrap();
        assert!(fs.is_open(ofd));
    }

    #[test]
    fn create_new_fails_on_existing() {
        let mut fs = fs_with_file("/f", b"");
        assert_eq!(
            fs.open("/f", OpenOptions::write_only().create_new(true))
                .unwrap_err(),
            FsError::Exists
        );
    }

    #[test]
    fn write_readonly_file_denied() {
        let mut fs = fs_with_file("/ro", b"data");
        fs.set_readonly("/ro", true).unwrap();
        assert_eq!(
            fs.open("/ro", OpenOptions::write_only()).unwrap_err(),
            FsError::AccessDenied
        );
        assert_eq!(fs.unlink("/ro").unwrap_err(), FsError::AccessDenied);
        fs.set_readonly("/ro", false).unwrap();
        assert!(fs.unlink("/ro").is_ok());
    }

    #[test]
    fn directories_are_not_files() {
        let mut fs = FileSystem::new_posix();
        fs.mkdir("/d").unwrap();
        assert_eq!(
            fs.open("/d", OpenOptions::read_only()).unwrap_err(),
            FsError::IsADirectory
        );
        assert_eq!(fs.unlink("/d").unwrap_err(), FsError::IsADirectory);
        fs.create_file("/f", vec![]).unwrap();
        assert_eq!(fs.rmdir("/f").unwrap_err(), FsError::NotADirectory);
        assert_eq!(fs.list_dir("/f").unwrap_err(), FsError::NotADirectory);
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = FileSystem::new_posix();
        fs.mkdir("/d").unwrap();
        fs.create_file("/d/x", vec![]).unwrap();
        assert_eq!(fs.rmdir("/d").unwrap_err(), FsError::NotEmpty);
        fs.unlink("/d/x").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn rename_moves_and_respects_existing() {
        let mut fs = fs_with_file("/a", b"1");
        fs.create_file("/b", b"2".to_vec()).unwrap();
        assert_eq!(fs.rename("/a", "/b").unwrap_err(), FsError::Exists);
        fs.rename("/a", "/c").unwrap();
        assert!(!fs.exists("/a"));
        assert_eq!(fs.stat("/c").unwrap().size, 1);
    }

    #[test]
    fn rename_rejects_moving_dir_into_own_subtree() {
        let mut fs = FileSystem::new_posix();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        assert_eq!(
            fs.rename("/a", "/a/b/c").unwrap_err(),
            FsError::InvalidPath
        );
        assert_eq!(fs.rename("/a", "/a/c").unwrap_err(), FsError::InvalidPath);
        assert_eq!(fs.rename("/a", "/a").unwrap_err(), FsError::Exists);
        // The tree must be untouched: still well formed, nothing orphaned.
        fs.validate_tree().unwrap();
        assert!(fs.exists("/a/b"));

        // Case-insensitive variants must apply the same guard case-folded.
        let mut win = FileSystem::new_windows();
        win.mkdir("/D").unwrap();
        assert_eq!(win.rename("/d", "/D/e").unwrap_err(), FsError::InvalidPath);
        win.validate_tree().unwrap();
    }

    #[test]
    fn seek_semantics() {
        let mut fs = fs_with_file("/s", b"0123456789");
        let ofd = fs.open("/s", OpenOptions::read_write()).unwrap();
        assert_eq!(fs.seek(ofd, SeekFrom::End(-2)).unwrap(), 8);
        let mut b = [0u8; 2];
        fs.read(ofd, &mut b).unwrap();
        assert_eq!(&b, b"89");
        assert_eq!(fs.seek(ofd, SeekFrom::Current(-4)).unwrap(), 6);
        assert_eq!(
            fs.seek(ofd, SeekFrom::Current(-100)).unwrap_err(),
            FsError::InvalidSeek
        );
        // Seeking past EOF then writing produces a sparse (zero-filled) gap.
        fs.seek(ofd, SeekFrom::Start(12)).unwrap();
        fs.write(ofd, b"XY").unwrap();
        assert_eq!(fs.size_of(ofd).unwrap(), 14);
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let mut fs = fs_with_file("/log", b"start");
        let ofd = fs.open("/log", OpenOptions::write_only().append(true)).unwrap();
        fs.seek(ofd, SeekFrom::Start(0)).unwrap();
        fs.write(ofd, b"+more").unwrap();
        let r = fs.open("/log", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read(r, &mut buf).unwrap(), 10);
        assert_eq!(&buf, b"start+more");
    }

    #[test]
    fn read_on_write_only_descriptor_fails() {
        let mut fs = fs_with_file("/f", b"x");
        let w = fs.open("/f", OpenOptions::write_only()).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(fs.read(w, &mut b).unwrap_err(), FsError::BadAccessMode);
        assert_eq!(fs.write(w, b"y").unwrap(), 1);
        let r = fs.open("/f", OpenOptions::read_only()).unwrap();
        assert_eq!(fs.write(r, b"z").unwrap_err(), FsError::BadAccessMode);
    }

    #[test]
    fn bad_descriptor_rejected() {
        let mut fs = FileSystem::new_posix();
        let mut b = [0u8; 1];
        assert_eq!(fs.read(999, &mut b).unwrap_err(), FsError::BadDescriptor);
        assert_eq!(fs.close(999).unwrap_err(), FsError::BadDescriptor);
        assert_eq!(fs.dup(999).unwrap_err(), FsError::BadDescriptor);
    }

    #[test]
    fn dup_shares_file_but_copies_offset() {
        let mut fs = fs_with_file("/f", b"abcdef");
        let a = fs.open("/f", OpenOptions::read_only()).unwrap();
        let mut b1 = [0u8; 2];
        fs.read(a, &mut b1).unwrap();
        let b = fs.dup(a).unwrap();
        let mut b2 = [0u8; 2];
        fs.read(b, &mut b2).unwrap();
        assert_eq!(&b2, b"cd"); // continues from copied offset
        assert_eq!(fs.open_count(), 2);
    }

    #[test]
    fn list_dir_sorted() {
        let mut fs = FileSystem::new_posix();
        fs.mkdir("/d").unwrap();
        fs.create_file("/d/zeta", vec![]).unwrap();
        fs.create_file("/d/alpha", vec![]).unwrap();
        assert_eq!(fs.list_dir("/d").unwrap(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn open_limit_enforced() {
        let mut fs = fs_with_file("/limited", b"x");
        fs.set_open_limit(Some(2));
        let a = fs.open("/limited", OpenOptions::read_only()).unwrap();
        let _b = fs.open("/limited", OpenOptions::read_only()).unwrap();
        assert_eq!(
            fs.open("/limited", OpenOptions::read_only()).unwrap_err(),
            FsError::TooManyOpen
        );
        assert_eq!(fs.dup(a).unwrap_err(), FsError::TooManyOpen);
        // Closing frees a slot.
        fs.close(a).unwrap();
        assert!(fs.open("/limited", OpenOptions::read_only()).is_ok());
        // Lifting the limit restores unlimited behaviour.
        fs.set_open_limit(None);
        for _ in 0..10 {
            fs.open("/limited", OpenOptions::read_only()).unwrap();
        }
    }

    #[test]
    fn timestamps_follow_clock() {
        let mut fs = FileSystem::new_posix();
        fs.set_now_ms(100);
        fs.create_file("/t", vec![]).unwrap();
        assert_eq!(fs.stat("/t").unwrap().attrs.created_ms, 100);
        fs.set_now_ms(200);
        let ofd = fs.open("/t", OpenOptions::write_only()).unwrap();
        fs.write(ofd, b"x").unwrap();
        assert_eq!(fs.stat("/t").unwrap().attrs.modified_ms, 200);
    }
}
