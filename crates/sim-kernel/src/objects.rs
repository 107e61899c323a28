//! Kernel objects and the generation-checked handle table.
//!
//! Both API personalities name kernel resources through small integers:
//! Win32 `HANDLE`s and POSIX file descriptors. Ballista's `HANDLE` test pool
//! includes closed handles, wrong-type handles, `INVALID_HANDLE_VALUE`,
//! negative values and garbage integers — so the table must diagnose *why* a
//! handle is bad, and must never resurrect a stale one (slot reuse bumps a
//! generation counter baked into the handle value).

use crate::sync::SyncState;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An opaque kernel-object designator as handed to application code.
///
/// Layout: low 16 bits = slot index, high 16 bits = slot generation. The
/// pseudo-handles returned by `GetCurrentProcess()` / `GetCurrentThread()`
/// are the classic `-1` / `-2` sentinels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Handle(pub u32);

impl Handle {
    /// The Win32 `INVALID_HANDLE_VALUE` sentinel (also `(HANDLE)-1`).
    pub const INVALID: Handle = Handle(u32::MAX);
    /// Pseudo-handle for the current process (`GetCurrentProcess()`).
    pub const CURRENT_PROCESS: Handle = Handle(u32::MAX); // == INVALID, as on real Win32
    /// Pseudo-handle for the current thread (`GetCurrentThread()`).
    pub const CURRENT_THREAD: Handle = Handle(u32::MAX - 1);
    /// The null handle.
    pub const NULL: Handle = Handle(0);

    /// Raw 32-bit value.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Whether this is one of the pseudo-handles.
    #[must_use]
    pub const fn is_pseudo(self) -> bool {
        self.0 == Handle::CURRENT_PROCESS.0 || self.0 == Handle::CURRENT_THREAD.0
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF) as usize
    }

    fn generation(self) -> u32 {
        self.0 >> 16
    }

    fn from_parts(slot: usize, generation: u32) -> Handle {
        Handle(((generation & 0xFFFF) << 16) | (slot as u32 & 0xFFFF))
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "handle(0x{:08x})", self.0)
    }
}

/// What a kernel object *is*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectKind {
    /// A process, by process id.
    Process(u32),
    /// A thread, by thread id.
    Thread(u32),
    /// An open file, by open-file-description id in the filesystem.
    File(u64),
    /// A console/standard device stream.
    ConsoleStream {
        /// 0 = stdin, 1 = stdout, 2 = stderr.
        stream: u8,
    },
    /// An event object.
    Event(SyncState),
    /// A mutex object.
    Mutex(SyncState),
    /// A semaphore object.
    Semaphore(SyncState),
    /// A heap created by `HeapCreate`, by heap id.
    Heap(u32),
    /// A file-mapping object, by backing file (or `None` for pagefile).
    FileMapping {
        /// Backing open-file id, if file-backed.
        file: Option<u64>,
        /// Mapping length.
        len: u64,
    },
    /// A directory-search handle (`FindFirstFile`).
    FindSearch {
        /// Remaining entries to report.
        entries: Vec<String>,
        /// Cursor into `entries`.
        cursor: usize,
    },
}

impl ObjectKind {
    /// Short type name used in handle-mismatch diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            ObjectKind::Process(_) => "process",
            ObjectKind::Thread(_) => "thread",
            ObjectKind::File(_) => "file",
            ObjectKind::ConsoleStream { .. } => "console",
            ObjectKind::Event(_) => "event",
            ObjectKind::Mutex(_) => "mutex",
            ObjectKind::Semaphore(_) => "semaphore",
            ObjectKind::Heap(_) => "heap",
            ObjectKind::FileMapping { .. } => "file-mapping",
            ObjectKind::FindSearch { .. } => "find-search",
        }
    }
}

/// Why a handle failed to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandleError {
    /// The null handle.
    Null,
    /// `INVALID_HANDLE_VALUE` used where a real handle was required.
    InvalidSentinel,
    /// Slot index out of table bounds or never allocated.
    NeverAllocated,
    /// The slot was valid once but the handle was closed (stale generation
    /// or empty slot).
    Closed,
    /// The handle resolves, but to an object of the wrong type.
    WrongType {
        /// The type the object actually has.
        actual: &'static str,
    },
}

impl fmt::Display for HandleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandleError::Null => f.write_str("null handle"),
            HandleError::InvalidSentinel => f.write_str("INVALID_HANDLE_VALUE"),
            HandleError::NeverAllocated => f.write_str("handle was never allocated"),
            HandleError::Closed => f.write_str("handle has been closed"),
            HandleError::WrongType { actual } => {
                write!(f, "handle refers to a {actual} object")
            }
        }
    }
}

impl std::error::Error for HandleError {}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    generation: u32,
    entry: Option<Entry>,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    kind: ObjectKind,
    refcount: u32,
    inheritable: bool,
}

/// The per-process kernel handle table.
///
/// # Example
///
/// ```
/// use sim_kernel::objects::{ObjectTable, ObjectKind, HandleError};
/// use sim_kernel::sync::SyncState;
///
/// let mut table = ObjectTable::new();
/// let h = table.insert(ObjectKind::Event(SyncState::event(false, false)));
/// assert!(table.get(h).is_ok());
/// table.close(h).unwrap();
/// assert_eq!(table.get(h).unwrap_err(), HandleError::Closed);
/// ```
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct ObjectTable {
    slots: Vec<Slot>,
    /// Structural-mutation counter for the snapshot layer (see
    /// `FileSystem::generation` for the protocol). [`ObjectTable::get_mut`]
    /// bumps conservatively — the caller holds `&mut ObjectKind` and may
    /// mutate through it.
    #[serde(default)]
    gen: u64,
}

impl Clone for ObjectTable {
    fn clone(&self) -> Self {
        ObjectTable {
            slots: self.slots.clone(),
            gen: self.gen,
        }
    }

    /// Keeps `self`'s slot buffer, so resetting a machine's table to its
    /// boot image reuses it and a later insert does not reallocate.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.gen = source.gen;
    }
}

/// Equality covers the slots (including per-slot generations, which decide
/// which stale handles resolve) but not the table-level mutation counter.
impl PartialEq for ObjectTable {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

impl Eq for ObjectTable {}

impl ObjectTable {
    /// Creates an empty table. Slot 0 is reserved so that handle value 0
    /// (the null handle) never resolves.
    #[must_use]
    pub fn new() -> Self {
        ObjectTable {
            slots: vec![Slot {
                generation: 0,
                entry: None,
            }],
            gen: 0,
        }
    }

    /// Current structural generation (see `FileSystem::generation`).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    fn touch(&mut self) {
        self.gen = self.gen.wrapping_add(1);
    }

    /// Inserts an object and returns a fresh handle with refcount 1.
    pub fn insert(&mut self, kind: ObjectKind) -> Handle {
        self.touch();
        let entry = Entry {
            kind,
            refcount: 1,
            inheritable: false,
        };
        // Reuse the first empty slot (bumping its generation), else append.
        for (i, slot) in self.slots.iter_mut().enumerate().skip(1) {
            if slot.entry.is_none() {
                slot.generation = slot.generation.wrapping_add(1) & 0xFFFF;
                slot.entry = Some(entry);
                return Handle::from_parts(i, slot.generation);
            }
        }
        let i = self.slots.len();
        self.slots.push(Slot {
            generation: 1,
            entry: Some(entry),
        });
        Handle::from_parts(i, 1)
    }

    fn resolve_slot(&self, handle: Handle) -> Result<usize, HandleError> {
        if handle == Handle::NULL {
            return Err(HandleError::Null);
        }
        if handle == Handle::INVALID || handle == Handle::CURRENT_THREAD {
            return Err(HandleError::InvalidSentinel);
        }
        let slot = handle.slot();
        if slot == 0 || slot >= self.slots.len() {
            return Err(HandleError::NeverAllocated);
        }
        let s = &self.slots[slot];
        if s.entry.is_none() || s.generation != handle.generation() {
            return Err(HandleError::Closed);
        }
        Ok(slot)
    }

    /// Resolves a handle to its object.
    ///
    /// # Errors
    ///
    /// A [`HandleError`] describing exactly why the handle is bad. The
    /// pseudo-handles are *not* resolved here — callers that accept them
    /// (e.g. `GetThreadContext`) must check [`Handle::is_pseudo`] first.
    pub fn get(&self, handle: Handle) -> Result<&ObjectKind, HandleError> {
        let slot = self.resolve_slot(handle)?;
        Ok(&self.slots[slot].entry.as_ref().expect("resolved").kind)
    }

    /// Resolves a handle to its object, mutably.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ObjectTable::get`].
    pub fn get_mut(&mut self, handle: Handle) -> Result<&mut ObjectKind, HandleError> {
        let slot = self.resolve_slot(handle)?;
        self.touch();
        Ok(&mut self.slots[slot].entry.as_mut().expect("resolved").kind)
    }

    /// Closes a handle: drops one reference; the slot empties when the
    /// refcount reaches zero.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ObjectTable::get`].
    pub fn close(&mut self, handle: Handle) -> Result<(), HandleError> {
        let slot = self.resolve_slot(handle)?;
        self.touch();
        let entry = self.slots[slot].entry.as_mut().expect("resolved");
        entry.refcount -= 1;
        if entry.refcount == 0 {
            self.slots[slot].entry = None;
        }
        Ok(())
    }

    /// Duplicates a handle: bumps the refcount and returns a second handle
    /// to the same slot (sharing the generation, as real `DuplicateHandle`
    /// shares the object).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ObjectTable::get`].
    pub fn duplicate(&mut self, handle: Handle) -> Result<Handle, HandleError> {
        let slot = self.resolve_slot(handle)?;
        self.touch();
        let s = &mut self.slots[slot];
        s.entry.as_mut().expect("resolved").refcount += 1;
        Ok(Handle::from_parts(slot, s.generation))
    }

    /// Marks a handle inheritable (the `SetHandleInformation` bit the
    /// paper's pools poke at).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ObjectTable::get`].
    pub fn set_inheritable(&mut self, handle: Handle, inheritable: bool) -> Result<(), HandleError> {
        let slot = self.resolve_slot(handle)?;
        self.touch();
        self.slots[slot].entry.as_mut().expect("resolved").inheritable = inheritable;
        Ok(())
    }

    /// Number of live objects.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.slots.iter().filter(|s| s.entry.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::SyncState;

    fn event() -> ObjectKind {
        ObjectKind::Event(SyncState::event(false, false))
    }

    #[test]
    fn insert_and_get() {
        let mut t = ObjectTable::new();
        let h = t.insert(ObjectKind::Process(42));
        assert_eq!(t.get(h).unwrap(), &ObjectKind::Process(42));
        assert_eq!(t.live_objects(), 1);
    }

    #[test]
    fn null_and_sentinel_handles_fail() {
        let t = ObjectTable::new();
        assert_eq!(t.get(Handle::NULL).unwrap_err(), HandleError::Null);
        assert_eq!(
            t.get(Handle::INVALID).unwrap_err(),
            HandleError::InvalidSentinel
        );
        assert_eq!(
            t.get(Handle::CURRENT_THREAD).unwrap_err(),
            HandleError::InvalidSentinel
        );
    }

    #[test]
    fn garbage_handles_fail() {
        let t = ObjectTable::new();
        assert_eq!(
            t.get(Handle(0x0001_0005)).unwrap_err(),
            HandleError::NeverAllocated
        );
        assert_eq!(t.get(Handle(12345)).unwrap_err(), HandleError::NeverAllocated);
    }

    #[test]
    fn closed_handle_is_stale() {
        let mut t = ObjectTable::new();
        let h = t.insert(event());
        t.close(h).unwrap();
        assert_eq!(t.get(h).unwrap_err(), HandleError::Closed);
        // Closing again is an error too.
        assert_eq!(t.close(h).unwrap_err(), HandleError::Closed);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_handle() {
        let mut t = ObjectTable::new();
        let old = t.insert(event());
        t.close(old).unwrap();
        let new = t.insert(ObjectKind::Thread(7));
        // Same slot, different generation.
        assert_ne!(old, new);
        assert_eq!(t.get(old).unwrap_err(), HandleError::Closed);
        assert_eq!(t.get(new).unwrap(), &ObjectKind::Thread(7));
    }

    #[test]
    fn duplicate_shares_object() {
        let mut t = ObjectTable::new();
        let a = t.insert(event());
        let b = t.duplicate(a).unwrap();
        t.close(a).unwrap();
        // Object still alive through b.
        assert!(t.get(b).is_ok());
        t.close(b).unwrap();
        assert_eq!(t.get(b).unwrap_err(), HandleError::Closed);
    }

    #[test]
    fn pseudo_handles_detected() {
        assert!(Handle::CURRENT_PROCESS.is_pseudo());
        assert!(Handle::CURRENT_THREAD.is_pseudo());
        assert!(!Handle(5).is_pseudo());
    }

    #[test]
    fn inheritable_flag() {
        let mut t = ObjectTable::new();
        let h = t.insert(event());
        t.set_inheritable(h, true).unwrap();
        assert!(t.set_inheritable(Handle::NULL, true).is_err());
    }

    #[test]
    fn type_names_cover_variants() {
        assert_eq!(ObjectKind::Process(1).type_name(), "process");
        assert_eq!(ObjectKind::Heap(1).type_name(), "heap");
        assert_eq!(
            ObjectKind::FindSearch {
                entries: vec![],
                cursor: 0
            }
            .type_name(),
            "find-search"
        );
    }
}
