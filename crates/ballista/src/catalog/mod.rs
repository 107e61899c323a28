//! The MuT catalogs: which calls are tested on which OS, with which
//! signatures.
//!
//! Mirrors the paper's experimental scope: ~143 Win32 system calls and the
//! C library on the Windows variants (71 system calls and a reduced C
//! library on CE; 10 calls absent from Windows 95), ~91 POSIX system calls
//! plus the same C library on Linux. GDI and device-driver calls are out
//! of scope, as in the paper.

mod clib;
mod posix;
mod win32;

use crate::campaign;
use crate::datatype::TypeRegistry;
use crate::muts::Mut;
use crate::pools;
use crate::sampling::{self, Plan};
use crate::value::TestValue;
use sim_kernel::variant::OsVariant;
use std::sync::OnceLock;

/// The data-type registry for an OS (POSIX vs Windows pools).
#[must_use]
pub fn registry_for(os: OsVariant) -> TypeRegistry {
    if os == OsVariant::Linux {
        pools::posix_types()
    } else {
        let mut reg = pools::windows_types();
        clib::register_wide_types(&mut reg);
        reg
    }
}

/// The complete MuT catalog for an OS: system calls plus C library.
#[must_use]
pub fn catalog_for(os: OsVariant) -> Vec<Mut> {
    let mut out = Vec::new();
    if os == OsVariant::Linux {
        out.extend(posix::posix_calls());
    } else {
        out.extend(win32::win32_calls(os));
    }
    out.extend(clib::c_library(os));
    out
}

/// A variant's catalog resolved once per process: its registry, every
/// MuT in catalog order with its pools, and the largest number of cases
/// any MuT plans. Test values attach to data types, not to functions, so
/// this is fixed data; every engine, shard, explore, coverage pass and
/// fingerprint reads it instead of rebuilding it.
pub(crate) struct Prepared {
    pub(crate) registry: TypeRegistry,
    pub(crate) muts: Vec<ResolvedMut>,
    /// The smallest cap at which every plan is exhaustive.
    pub(crate) exhaustive_cap: usize,
}

/// One catalog MuT with its parameter pools resolved against the
/// variant's registry, and their sizes.
pub(crate) struct ResolvedMut {
    pub(crate) mut_: Mut,
    pub(crate) pools: Vec<Vec<TestValue>>,
    pub(crate) dims: Vec<usize>,
}

impl ResolvedMut {
    /// Cases the MuT plans at `cap`: the whole product when the cap
    /// covers it, else `cap` (a zero-parameter MuT plans its one case).
    pub(crate) fn planned(&self, cap: usize) -> usize {
        if self.dims.is_empty() {
            return 1;
        }
        usize::try_from(sampling::combination_count(&self.dims)).map_or(cap, |n| n.min(cap))
    }

    /// The MuT's fixed plan at `cap`.
    pub(crate) fn plan(&self, cap: usize) -> Plan {
        campaign::plan_of(&self.mut_, &self.pools, cap)
    }
}

/// `os`'s [`Prepared`] table, built on first use.
pub(crate) fn prepared(os: OsVariant) -> &'static Prepared {
    static TABLES: [OnceLock<Prepared>; OsVariant::ALL.len()] =
        [const { OnceLock::new() }; OsVariant::ALL.len()];
    let slot = OsVariant::ALL
        .iter()
        .position(|&v| v == os)
        .expect("every variant is in ALL");
    TABLES[slot].get_or_init(|| {
        let registry = registry_for(os);
        let muts: Vec<ResolvedMut> = catalog_for(os)
            .into_iter()
            .map(|mut_| {
                let pools = campaign::resolve_pools(&registry, &mut_);
                let dims = pools.iter().map(Vec::len).collect();
                ResolvedMut { mut_, pools, dims }
            })
            .collect();
        let exhaustive_cap = muts.iter().map(|m| m.planned(usize::MAX)).max();
        Prepared {
            registry,
            exhaustive_cap: exhaustive_cap.unwrap_or(1),
            muts,
        }
    })
}

/// Convenience: only the system-call MuTs.
#[must_use]
pub fn system_calls_for(os: OsVariant) -> Vec<Mut> {
    catalog_for(os)
        .into_iter()
        .filter(|m| !m.group.is_c_library())
        .collect()
}

/// Convenience: only the C-library MuTs.
#[must_use]
pub fn c_functions_for(os: OsVariant) -> Vec<Mut> {
    catalog_for(os)
        .into_iter()
        .filter(|m| m.group.is_c_library())
        .collect()
}

/// Declares one MuT. Usage:
/// `m!(vec, "name", Group, ["ty1", "ty2"], |k, os, a| dispatch-expr)`.
macro_rules! m {
    ($vec:ident, $name:literal, $group:expr, [$($ty:literal),* $(,)?], |$k:ident, $os:ident, $a:ident| $body:expr) => {
        $vec.push($crate::muts::Mut {
            name: $name,
            group: $group,
            params: vec![$($ty),*],
            dispatch: ::std::sync::Arc::new(
                move |$k: &mut ::sim_kernel::Kernel,
                      $os: ::sim_kernel::variant::OsVariant,
                      $a: &[u64]| {
                    let _ = $os;
                    let _ = &$a;
                    $body
                },
            ),
        });
    };
}
pub(crate) use m;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_sizes_match_paper_scope() {
        // Table 1's "Calls tested" row, within a small tolerance for the
        // reproduction (documented in EXPERIMENTS.md).
        let linux_sys = system_calls_for(OsVariant::Linux).len();
        assert!(
            (85..=95).contains(&linux_sys),
            "Linux system calls: {linux_sys} (paper: 91)"
        );
        for os in [OsVariant::Win98, OsVariant::WinNt4, OsVariant::Win2000, OsVariant::Win98Se] {
            let n = system_calls_for(os).len();
            assert!((135..=148).contains(&n), "{os} system calls: {n} (paper: 143)");
        }
        let w95 = system_calls_for(OsVariant::Win95).len();
        let w98 = system_calls_for(OsVariant::Win98).len();
        assert_eq!(w98 - w95, 10, "Windows 95 misses exactly 10 calls");
        let ce = system_calls_for(OsVariant::WinCe).len();
        assert!((65..=78).contains(&ce), "CE system calls: {ce} (paper: 71)");

        let c_linux = c_functions_for(OsVariant::Linux).len();
        let c_nt = c_functions_for(OsVariant::WinNt4).len();
        assert_eq!(c_linux, c_nt, "identical C library on both APIs");
        assert!((90..=100).contains(&c_nt), "C functions: {c_nt} (paper: 94)");
        let c_ce = c_functions_for(OsVariant::WinCe).len();
        assert!((75..=88).contains(&c_ce), "CE C functions: {c_ce} (paper: 82)");
    }

    #[test]
    fn every_mut_signature_resolves() {
        for os in OsVariant::ALL {
            let registry = registry_for(os);
            for m in catalog_for(os) {
                for ty in &m.params {
                    assert!(
                        registry.contains(ty),
                        "{os}: {} references unknown type {ty}",
                        m.name
                    );
                    assert!(!registry.pool(ty).is_empty());
                }
            }
        }
    }

    #[test]
    fn no_duplicate_names_per_os() {
        for os in OsVariant::ALL {
            let mut seen = HashSet::new();
            for m in catalog_for(os) {
                assert!(seen.insert(m.name), "{os}: duplicate MuT {}", m.name);
            }
        }
    }

    #[test]
    fn c_library_identical_across_desktop_windows_and_linux() {
        // Same names in the same order — the prerequisite for the paper's
        // identical-test-case comparison.
        let names = |os| {
            c_functions_for(os)
                .iter()
                .map(|m| m.name)
                .collect::<Vec<_>>()
        };
        let linux = names(OsVariant::Linux);
        for os in OsVariant::DESKTOP_WINDOWS {
            assert_eq!(names(os), linux, "{os}");
        }
    }

    #[test]
    fn table3_functions_present_on_their_variants() {
        for (name, os) in [
            ("GetThreadContext", OsVariant::Win95),
            ("DuplicateHandle", OsVariant::Win98),
            ("MsgWaitForMultipleObjectsEx", OsVariant::Win98),
            ("FileTimeToSystemTime", OsVariant::Win95),
            ("HeapCreate", OsVariant::Win95),
            ("CreateThread", OsVariant::Win98Se),
            ("InterlockedIncrement", OsVariant::WinCe),
            ("VirtualAlloc", OsVariant::WinCe),
            ("fwrite", OsVariant::Win98),
            ("strncpy", OsVariant::Win98),
        ] {
            assert!(
                catalog_for(os).iter().any(|m| m.name == name),
                "{name} missing from the {os} catalog"
            );
        }
        // MsgWaitForMultipleObjectsEx is absent on 95.
        assert!(!catalog_for(OsVariant::Win95)
            .iter()
            .any(|m| m.name == "MsgWaitForMultipleObjectsEx"));
        // The C time group is absent on CE.
        assert!(!catalog_for(OsVariant::WinCe)
            .iter()
            .any(|m| m.group == crate::muts::FunctionGroup::CTime));
    }
}
