//! Processes, threads and register contexts.
//!
//! The process table is deliberately simple: robustness testing needs
//! process *identity* (pids/tids, parents, exit codes, wait semantics) and
//! thread *register contexts* (the `CONTEXT` block `GetThreadContext`
//! copies), not an instruction-level scheduler. Children spawned by
//! `CreateProcess`/`fork` exist as records that can be queried, waited on
//! and terminated.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Lifecycle state of a simulated process or thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Runnable.
    Running,
    /// Suspended (positive suspend count).
    Suspended,
    /// Finished with an exit code.
    Exited(u32),
}

/// A simulated x86-style register context — the payload of
/// `GetThreadContext` / `SetThreadContext`.
///
/// The real `CONTEXT` structure is several hundred bytes; the simulated one
/// keeps the integer register file plus control registers, which is enough
/// for the robustness behaviour (what matters is *where the kernel writes
/// it*, not what is in it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[allow(missing_docs)] // register names are self-describing
pub struct ThreadContext {
    pub eax: u32,
    pub ebx: u32,
    pub ecx: u32,
    pub edx: u32,
    pub esi: u32,
    pub edi: u32,
    pub ebp: u32,
    pub esp: u32,
    pub eip: u32,
    pub eflags: u32,
    pub seg_cs: u32,
    pub seg_ds: u32,
    pub seg_es: u32,
    pub seg_fs: u32,
    pub seg_gs: u32,
    pub seg_ss: u32,
}

impl ThreadContext {
    /// Number of 32-bit fields serialized to user memory.
    pub const FIELD_COUNT: usize = 16;

    /// Size in bytes of the serialized context.
    pub const SIZE: u64 = (Self::FIELD_COUNT as u64) * 4;

    /// The context fields in serialization order.
    #[must_use]
    pub fn fields(&self) -> [u32; Self::FIELD_COUNT] {
        [
            self.eax, self.ebx, self.ecx, self.edx, self.esi, self.edi, self.ebp, self.esp,
            self.eip, self.eflags, self.seg_cs, self.seg_ds, self.seg_es, self.seg_fs,
            self.seg_gs, self.seg_ss,
        ]
    }

    /// Rebuilds a context from serialized fields.
    #[must_use]
    pub fn from_fields(f: [u32; Self::FIELD_COUNT]) -> Self {
        ThreadContext {
            eax: f[0],
            ebx: f[1],
            ecx: f[2],
            edx: f[3],
            esi: f[4],
            edi: f[5],
            ebp: f[6],
            esp: f[7],
            eip: f[8],
            eflags: f[9],
            seg_cs: f[10],
            seg_ds: f[11],
            seg_es: f[12],
            seg_fs: f[13],
            seg_gs: f[14],
            seg_ss: f[15],
        }
    }
}

/// A simulated thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Thread {
    /// Thread id.
    pub tid: u32,
    /// Owning process id.
    pub pid: u32,
    /// Scheduling state.
    pub state: RunState,
    /// Suspend count (`SuspendThread` nests).
    pub suspend_count: u32,
    /// Register context.
    pub context: ThreadContext,
    /// Scheduling priority.
    pub priority: i32,
}

/// A simulated process.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Process {
    /// Process id.
    pub pid: u32,
    /// Parent process id (0 for the initial process).
    pub parent: u32,
    /// Image name ("command line" of the simulated program).
    pub image: String,
    /// Lifecycle state.
    pub state: RunState,
    /// Thread ids belonging to this process.
    pub threads: Vec<u32>,
    /// Whether the parent has already waited on this (zombie reaping).
    pub reaped: bool,
}

impl Clone for Process {
    fn clone(&self) -> Self {
        Process {
            pid: self.pid,
            parent: self.parent,
            image: self.image.clone(),
            state: self.state,
            threads: self.threads.clone(),
            reaped: self.reaped,
        }
    }

    /// Refills `self`'s image name and thread list in their own buffers.
    fn clone_from(&mut self, source: &Self) {
        self.pid = source.pid;
        self.parent = source.parent;
        self.image.clone_from(&source.image);
        self.state = source.state;
        self.threads.clone_from(&source.threads);
        self.reaped = source.reaped;
    }
}

/// Error vocabulary for process-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessError {
    /// No such process.
    NoProcess,
    /// No such thread.
    NoThread,
    /// No waitable children.
    NoChildren,
    /// The target has already exited.
    AlreadyExited,
    /// Invalid argument (bad priority, bad flags…).
    InvalidArgument,
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcessError::NoProcess => "no such process",
            ProcessError::NoThread => "no such thread",
            ProcessError::NoChildren => "no waitable children",
            ProcessError::AlreadyExited => "process has already exited",
            ProcessError::InvalidArgument => "invalid argument",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProcessError {}

/// The process/thread table. One exists per [`Kernel`](crate::Kernel); the
/// "current" process (pid from [`ProcessTable::current_pid`]) is the
/// simulated program Ballista is driving.
#[derive(Debug, Serialize, Deserialize)]
pub struct ProcessTable {
    processes: Vec<Process>,
    threads: Vec<Thread>,
    next_pid: u32,
    next_tid: u32,
    current_pid: u32,
    current_tid: u32,
    /// Structural-mutation counter for the snapshot layer (see
    /// `FileSystem::generation` for the protocol). [`ProcessTable::thread_mut`]
    /// bumps conservatively — the caller holds `&mut Thread`.
    #[serde(default)]
    gen: u64,
}

impl Clone for ProcessTable {
    fn clone(&self) -> Self {
        ProcessTable {
            processes: self.processes.clone(),
            threads: self.threads.clone(),
            next_pid: self.next_pid,
            next_tid: self.next_tid,
            current_pid: self.current_pid,
            current_tid: self.current_tid,
            gen: self.gen,
        }
    }

    /// Keeps `self`'s process and thread buffers (and each surviving
    /// process's own), so resetting a machine's table to its boot image
    /// allocates nothing and a later spawn does not reallocate.
    fn clone_from(&mut self, source: &Self) {
        self.processes.clone_from(&source.processes);
        self.threads.clone_from(&source.threads);
        self.next_pid = source.next_pid;
        self.next_tid = source.next_tid;
        self.current_pid = source.current_pid;
        self.current_tid = source.current_tid;
        self.gen = source.gen;
    }
}

/// Equality covers the tables and id cursors, not the mutation counter.
impl PartialEq for ProcessTable {
    fn eq(&self, other: &Self) -> bool {
        self.processes == other.processes
            && self.threads == other.threads
            && self.next_pid == other.next_pid
            && self.next_tid == other.next_tid
            && self.current_pid == other.current_pid
            && self.current_tid == other.current_tid
    }
}

impl Eq for ProcessTable {}

impl Default for ProcessTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcessTable {
    /// Creates a table holding the initial process (pid 100) with one
    /// thread (tid 200).
    #[must_use]
    pub fn new() -> Self {
        let mut t = ProcessTable {
            processes: Vec::new(),
            threads: Vec::new(),
            next_pid: 100,
            next_tid: 200,
            current_pid: 0,
            current_tid: 0,
            gen: 0,
        };
        let pid = t.spawn_process(0, "init-test-task");
        t.current_pid = pid;
        t.current_tid = t.process(pid).expect("just spawned").threads[0];
        t
    }

    /// Current structural generation (see `FileSystem::generation`).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    fn touch(&mut self) {
        self.gen = self.gen.wrapping_add(1);
    }

    /// Pid of the simulated program under test.
    #[must_use]
    pub fn current_pid(&self) -> u32 {
        self.current_pid
    }

    /// Tid of the simulated program's main thread.
    #[must_use]
    pub fn current_tid(&self) -> u32 {
        self.current_tid
    }

    /// Spawns a process (with one initial thread) and returns its pid.
    pub fn spawn_process(&mut self, parent: u32, image: &str) -> u32 {
        self.touch();
        let pid = self.next_pid;
        self.next_pid += 1;
        let tid = self.spawn_thread_raw(pid);
        self.processes.push(Process {
            pid,
            parent,
            image: image.to_owned(),
            state: RunState::Running,
            threads: vec![tid],
            reaped: false,
        });
        pid
    }

    fn spawn_thread_raw(&mut self, pid: u32) -> u32 {
        let tid = self.next_tid;
        self.next_tid += 1;
        self.threads.push(Thread {
            tid,
            pid,
            state: RunState::Running,
            suspend_count: 0,
            context: ThreadContext {
                eip: 0x0040_1000,
                esp: 0x0012_F000,
                ..ThreadContext::default()
            },
            priority: 0,
        });
        tid
    }

    /// Spawns a new thread in `pid`, returning its tid.
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoProcess`] for dead or unknown pids.
    pub fn spawn_thread(&mut self, pid: u32) -> Result<u32, ProcessError> {
        self.touch();
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid && !matches!(p.state, RunState::Exited(_)))
            .ok_or(ProcessError::NoProcess)?;
        let tid = self.spawn_thread_raw(pid);
        self.processes[idx].threads.push(tid);
        Ok(tid)
    }

    /// Looks up a process.
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoProcess`].
    pub fn process(&self, pid: u32) -> Result<&Process, ProcessError> {
        self.processes
            .iter()
            .find(|p| p.pid == pid)
            .ok_or(ProcessError::NoProcess)
    }

    /// Looks up a thread.
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoThread`].
    pub fn thread(&self, tid: u32) -> Result<&Thread, ProcessError> {
        self.threads
            .iter()
            .find(|t| t.tid == tid)
            .ok_or(ProcessError::NoThread)
    }

    /// Looks up a thread mutably.
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoThread`].
    pub fn thread_mut(&mut self, tid: u32) -> Result<&mut Thread, ProcessError> {
        self.touch();
        self.threads
            .iter_mut()
            .find(|t| t.tid == tid)
            .ok_or(ProcessError::NoThread)
    }

    /// Terminates a process with `exit_code` (also exits its threads).
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoProcess`] / [`ProcessError::AlreadyExited`].
    pub fn terminate(&mut self, pid: u32, exit_code: u32) -> Result<(), ProcessError> {
        self.touch();
        let p = self
            .processes
            .iter_mut()
            .find(|p| p.pid == pid)
            .ok_or(ProcessError::NoProcess)?;
        if matches!(p.state, RunState::Exited(_)) {
            return Err(ProcessError::AlreadyExited);
        }
        p.state = RunState::Exited(exit_code);
        let tids = p.threads.clone();
        for tid in tids {
            if let Ok(t) = self.thread_mut(tid) {
                t.state = RunState::Exited(exit_code);
            }
        }
        Ok(())
    }

    /// Suspends a thread, returning the *previous* suspend count (as
    /// `SuspendThread` does).
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoThread`] / [`ProcessError::AlreadyExited`].
    pub fn suspend_thread(&mut self, tid: u32) -> Result<u32, ProcessError> {
        let t = self.thread_mut(tid)?;
        if matches!(t.state, RunState::Exited(_)) {
            return Err(ProcessError::AlreadyExited);
        }
        let prev = t.suspend_count;
        t.suspend_count += 1;
        t.state = RunState::Suspended;
        Ok(prev)
    }

    /// Resumes a thread, returning the *previous* suspend count.
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoThread`] / [`ProcessError::AlreadyExited`].
    pub fn resume_thread(&mut self, tid: u32) -> Result<u32, ProcessError> {
        let t = self.thread_mut(tid)?;
        if matches!(t.state, RunState::Exited(_)) {
            return Err(ProcessError::AlreadyExited);
        }
        let prev = t.suspend_count;
        if t.suspend_count > 0 {
            t.suspend_count -= 1;
        }
        if t.suspend_count == 0 {
            t.state = RunState::Running;
        }
        Ok(prev)
    }

    /// Reaps one exited, unreaped child of `parent` (the `waitpid(-1,
    /// WNOHANG)` building block). Returns `(pid, exit_code)`, or `Ok(None)`
    /// when children exist but none has exited.
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoChildren`] when `parent` has no unreaped children
    /// at all (POSIX `ECHILD`).
    pub fn reap_child(&mut self, parent: u32) -> Result<Option<(u32, u32)>, ProcessError> {
        self.touch();
        let mut has_children = false;
        for p in &mut self.processes {
            if p.parent == parent && !p.reaped {
                has_children = true;
                if let RunState::Exited(code) = p.state {
                    p.reaped = true;
                    return Ok(Some((p.pid, code)));
                }
            }
        }
        if has_children {
            Ok(None)
        } else {
            Err(ProcessError::NoChildren)
        }
    }

    /// All live pids, ascending.
    #[must_use]
    pub fn live_pids(&self) -> Vec<u32> {
        self.processes
            .iter()
            .filter(|p| !matches!(p.state, RunState::Exited(_)))
            .map(|p| p.pid)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_process_exists() {
        let t = ProcessTable::new();
        let p = t.process(t.current_pid()).unwrap();
        assert_eq!(p.parent, 0);
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.threads[0], t.current_tid());
    }

    #[test]
    fn spawn_and_terminate() {
        let mut t = ProcessTable::new();
        let child = t.spawn_process(t.current_pid(), "child.exe");
        assert!(t.live_pids().contains(&child));
        t.terminate(child, 3).unwrap();
        assert!(!t.live_pids().contains(&child));
        assert_eq!(t.terminate(child, 0).unwrap_err(), ProcessError::AlreadyExited);
        assert_eq!(t.terminate(9999, 0).unwrap_err(), ProcessError::NoProcess);
    }

    #[test]
    fn thread_spawn_in_dead_process_fails() {
        let mut t = ProcessTable::new();
        let child = t.spawn_process(t.current_pid(), "c");
        t.terminate(child, 0).unwrap();
        assert_eq!(t.spawn_thread(child).unwrap_err(), ProcessError::NoProcess);
    }

    #[test]
    fn suspend_resume_counts() {
        let mut t = ProcessTable::new();
        let tid = t.current_tid();
        assert_eq!(t.suspend_thread(tid).unwrap(), 0);
        assert_eq!(t.suspend_thread(tid).unwrap(), 1);
        assert_eq!(t.thread(tid).unwrap().state, RunState::Suspended);
        assert_eq!(t.resume_thread(tid).unwrap(), 2);
        assert_eq!(t.resume_thread(tid).unwrap(), 1);
        assert_eq!(t.thread(tid).unwrap().state, RunState::Running);
        // Resuming a running thread reports previous count 0 and stays put.
        assert_eq!(t.resume_thread(tid).unwrap(), 0);
    }

    #[test]
    fn reap_children() {
        let mut t = ProcessTable::new();
        let me = t.current_pid();
        assert_eq!(t.reap_child(me).unwrap_err(), ProcessError::NoChildren);
        let a = t.spawn_process(me, "a");
        let b = t.spawn_process(me, "b");
        assert_eq!(t.reap_child(me).unwrap(), None); // alive, none exited
        t.terminate(b, 7).unwrap();
        assert_eq!(t.reap_child(me).unwrap(), Some((b, 7)));
        assert_eq!(t.reap_child(me).unwrap(), None); // b reaped, a alive
        t.terminate(a, 1).unwrap();
        assert_eq!(t.reap_child(me).unwrap(), Some((a, 1)));
        assert_eq!(t.reap_child(me).unwrap_err(), ProcessError::NoChildren);
    }

    #[test]
    fn context_roundtrip() {
        let ctx = ThreadContext {
            eax: 1,
            esp: 0xFF00,
            eflags: 0x202,
            ..ThreadContext::default()
        };
        assert_eq!(ThreadContext::from_fields(ctx.fields()), ctx);
        assert_eq!(ThreadContext::SIZE, 64);
    }

    #[test]
    fn fresh_thread_has_plausible_context() {
        let t = ProcessTable::new();
        let ctx = t.thread(t.current_tid()).unwrap().context;
        assert_ne!(ctx.eip, 0);
        assert_ne!(ctx.esp, 0);
    }
}
