//! Chip profiles for the eight GPUs of the paper's Tab. 1, and the
//! incantation effect model of Tab. 6.
//!
//! Each profile carries per-mechanism base reordering probabilities,
//! calibrated so that running the paper's figures at the most effective
//! incantations lands in the same `obs/100k` decade as the paper reports
//! (exact counts are silicon-specific; shape is the reproduction target —
//! README, "Reproduce the paper").

use weakgpu_litmus::FenceScope;

/// GPU vendor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vendor {
    /// Nvidia (tests written in PTX).
    Nvidia,
    /// AMD (tests written in OpenCL, compiled by the vendor compiler).
    Amd,
}

/// The four incantations of Sec. 4.3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Incantations {
    /// Sec. 4.3.1 — non-testing threads hammer scratch memory.
    pub memory_stress: bool,
    /// Sec. 4.3.2 — same-warp threads provoke shared-memory bank conflicts.
    pub bank_conflicts: bool,
    /// Sec. 4.3.3 — random ids for testing threads and random thread counts.
    pub thread_rand: bool,
    /// Sec. 4.3.4 — testing threads synchronise on a counter before the test.
    pub thread_sync: bool,
}

impl Incantations {
    /// No incantations (the paper's basic setup, which witnesses no weak
    /// behaviour on Nvidia).
    pub fn none() -> Self {
        Incantations::default()
    }

    /// All four enabled (Tab. 6 column 16) — the best column for
    /// intra-CTA tests on Nvidia.
    pub fn all_on() -> Self {
        Incantations {
            memory_stress: true,
            bank_conflicts: true,
            thread_sync: true,
            thread_rand: true,
        }
    }

    /// Memory stress + thread sync + thread randomisation (Tab. 6
    /// column 12) — the best column for inter-CTA tests on Nvidia.
    pub fn best_inter_cta() -> Self {
        Incantations {
            memory_stress: true,
            bank_conflicts: false,
            thread_sync: true,
            thread_rand: true,
        }
    }

    /// The Tab. 6 column index (1–16) of this combination: columns
    /// enumerate (memory stress, bank conflicts) in blocks of four, and
    /// (thread sync, thread rand) within each block.
    pub fn column(&self) -> usize {
        let block = (self.memory_stress as usize) * 2 + self.bank_conflicts as usize;
        let inner = (self.thread_sync as usize) * 2 + self.thread_rand as usize;
        block * 4 + inner + 1
    }

    /// All 16 combinations in Tab. 6 column order.
    pub fn all_combinations() -> Vec<Incantations> {
        let mut v = Vec::with_capacity(16);
        for ms in [false, true] {
            for gbc in [false, true] {
                for ts in [false, true] {
                    for tr in [false, true] {
                        v.push(Incantations {
                            memory_stress: ms,
                            bank_conflicts: gbc,
                            thread_sync: ts,
                            thread_rand: tr,
                        });
                    }
                }
            }
        }
        v
    }

    fn index(&self) -> usize {
        self.column() - 1
    }
}

impl std::fmt::Display for Incantations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.memory_stress {
            parts.push("stress");
        }
        if self.bank_conflicts {
            parts.push("gbc");
        }
        if self.thread_sync {
            parts.push("sync");
        }
        if self.thread_rand {
            parts.push("rand");
        }
        if parts.is_empty() {
            write!(f, "none")
        } else {
            write!(f, "{}", parts.join("+"))
        }
    }
}

/// Per-mechanism incantation multiplier tables, indexed by Tab. 6 column.
///
/// Values are the per-class normalised observation counts of the
/// corresponding Tab. 6 row (sb → `wr`, lb → `rw`, mp → `wwrr`, coRR →
/// `rr_same`), so that 1.0 corresponds to the class's most effective
/// column.
#[derive(Clone, Copy, Debug)]
pub struct IncantationTables {
    /// Later-read-bypasses-earlier-write (store buffering).
    pub wr: [f64; 16],
    /// Later-write-bypasses-earlier-read (load buffering).
    pub rw: [f64; 16],
    /// Write-write and read-read (different location) — message passing.
    pub wwrr: [f64; 16],
    /// Read-read, same location (`coRR`).
    pub rr_same: [f64; 16],
}

/// Tab. 6, GTX Titan rows, normalised per row.
const NVIDIA_TABLES: IncantationTables = IncantationTables {
    // sb row: 0 0 0 0 | 0 0 0 0 | 462 1403 3308 6673 | 3 50 88 749, /6673
    wr: [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.069, 0.210, 0.496, 1.0, 0.0004, 0.0075, 0.0132,
        0.112,
    ],
    // lb row: 0 0 0 0 | 0 0 0 0 | 181 1067 1555 2247 | 4 37 83 486, /2247
    rw: [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.081, 0.475, 0.692, 1.0, 0.0018, 0.0165, 0.0369,
        0.216,
    ],
    // mp row: 0 0 0 0 | 0 621 0 2921 | 315 1128 2372 4347 | 7 94 442 2888, /4347
    wwrr: [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.143, 0.0, 0.672, 0.072, 0.259, 0.546, 1.0, 0.0016, 0.0216,
        0.102, 0.664,
    ],
    // coRR row: 0 0 0 0 | 0 1235 0 9774 | 161 118 847 362 | 632 3384 3993 9985, /9985
    rr_same: [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.124, 0.0, 0.979, 0.016, 0.012, 0.085, 0.036, 0.063, 0.339,
        0.400, 1.0,
    ],
};

/// Tab. 6, Radeon HD 7970 rows, normalised per row. AMD chips exhibit weak
/// behaviour even with no incantations (column 1).
const AMD_TABLES: IncantationTables = IncantationTables {
    // sb row: 0 0 0 0 | 2 0 2 0 | 0 … 0 — vanishingly rare, GBC-gated.
    wr: [
        0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ],
    // lb row: 10959 8979 31895 29092 | 13510 12729 29779 26737 |
    //         5094 9360 37624 38664 | 5321 10054 32796 34196, /38664
    rw: [
        0.283, 0.232, 0.825, 0.752, 0.349, 0.329, 0.770, 0.691, 0.132, 0.242, 0.973, 1.0, 0.138,
        0.260, 0.848, 0.884,
    ],
    // mp row: 212 31 243 158 | 277 46 318 247 | 473 217 1289 563 |
    //         611 339 2542 1628, /2542
    wwrr: [
        0.083, 0.012, 0.096, 0.062, 0.109, 0.018, 0.125, 0.097, 0.186, 0.085, 0.507, 0.221, 0.240,
        0.133, 1.0, 0.640,
    ],
    // coRR row: all zero.
    rr_same: [0.0; 16],
};

/// Reordering probabilities and cache behaviour: a chip's base
/// (best-incantation) weights ([`ChipProfile::base`]), or the
/// incantation-scaled weights of one batch of runs
/// ([`ChipProfile::weights`]).
#[derive(Clone, Copy, Debug)]
pub struct Weights {
    /// P(later read performs before an earlier pending write), per
    /// opportunity — drives `sb`.
    pub wr: f64,
    /// P(later write performs before an earlier pending read) — drives
    /// `lb`.
    pub rw: f64,
    /// P(write-write or read-read bypass, different locations) — drives
    /// `mp`.
    pub wwrr: f64,
    /// P(same-location read-read bypass) — drives `coRR`.
    pub rr_same: f64,
    /// P(same-location read-read bypass when the two loads carry
    /// *different* cache operators) — drives the ordering component of
    /// `coRR-L2-L1` (Fig. 4), much rarer than plain `coRR` on Kepler.
    pub rr_same_mixed: f64,
    /// P(bypass) for shared-memory access pairs — drives `mp-volatile`.
    pub shared: f64,
    /// Multiplier when the *earlier* (delayed) op is an RMW — drives
    /// `dlb-lb` (the CAS's read delayed past a later store).
    pub rmw_first_factor: f64,
    /// Multiplier when the *later* (bypassing) op is an RMW — drives
    /// `cas-sl` (the releasing exchange overtaking the pending store).
    pub rmw_second_factor: f64,
    /// P(a cta-scope fence fails to order inter-CTA communication) —
    /// the Kepler `mp+membar.ctas` leak.
    pub cta_fence_leak: f64,
    /// P(an SM's L1 holds a (fresh) line for a test location at run start).
    pub l1_preload: f64,
    /// P(a `.cg` load fails to evict a matching stale L1 line) — the
    /// `coRR-L2-L1` quirk (Fig. 4). The next `.ca` load reads the kept
    /// line's stale value, as it reads any line it finds, modelling the
    /// observed fence-immune behaviour on Fermi.
    pub keep_stale_after_cg: f64,
    /// Weakest fence scope that invalidates the issuing SM's L1 lines;
    /// `None` models the Tesla C2075, where no fence restores `.ca`
    /// orderings (Fig. 3).
    pub l1_invalidate_scope: Option<FenceScope>,
}

impl Weights {
    /// All-zero weights: a fully strong chip, which the simulator runs
    /// sequentially consistently (every probability zero, fences
    /// invalidate).
    pub const STRONG: Weights = Weights {
        wr: 0.0,
        rw: 0.0,
        wwrr: 0.0,
        rr_same: 0.0,
        rr_same_mixed: 0.0,
        shared: 0.0,
        rmw_first_factor: 0.0,
        rmw_second_factor: 0.0,
        cta_fence_leak: 0.0,
        l1_preload: 0.0,
        keep_stale_after_cg: 0.0,
        l1_invalidate_scope: Some(FenceScope::Cta),
    };
}

/// A complete chip profile.
#[derive(Clone, Copy, Debug)]
pub struct ChipProfile {
    /// Marketing name, e.g. `"GTX Titan"`.
    pub name: &'static str,
    /// Short name used in the paper's tables, e.g. `"Titan"`.
    pub short: &'static str,
    /// Vendor.
    pub vendor: Vendor,
    /// Architecture, e.g. `"Kepler"`.
    pub arch: &'static str,
    /// Release year (Tab. 1).
    pub year: u16,
    /// Number of SMs (compute units on AMD).
    pub num_sms: usize,
    /// Threads per warp (32 Nvidia, 64 AMD).
    pub warp_size: usize,
    /// Base reordering probabilities.
    pub base: Weights,
}

impl ChipProfile {
    /// The incantation multiplier tables for this vendor.
    pub fn tables(&self) -> &'static IncantationTables {
        match self.vendor {
            Vendor::Nvidia => &NVIDIA_TABLES,
            Vendor::Amd => &AMD_TABLES,
        }
    }

    /// Resolves the effective per-run weights for a given incantation
    /// combination.
    ///
    /// Reordering probabilities scale with the per-class Tab. 6 tables;
    /// cache-behaviour probabilities (`l1_*`, `keep_stale_after_cg`) scale
    /// with the memory-stress bit (stale lines need traffic to arise) and
    /// the structural parameters (`cta_fence_leak`, `atomic_factor`,
    /// `l1_invalidate_scope`) are incantation-independent.
    pub fn weights(&self, inc: &Incantations) -> Weights {
        let t = self.tables();
        let i = inc.index();
        // Stale L1 lines need memory traffic to arise; AMD profiles have
        // no L1 machinery, so the gate is a no-op there.
        let cache_mult = if self.vendor == Vendor::Amd || inc.memory_stress {
            1.0
        } else {
            0.0
        };
        Weights {
            wr: self.base.wr * t.wr[i],
            rw: self.base.rw * t.rw[i],
            wwrr: self.base.wwrr * t.wwrr[i],
            rr_same: self.base.rr_same * t.rr_same[i],
            rr_same_mixed: self.base.rr_same_mixed * t.rr_same[i],
            shared: self.base.shared * t.rr_same[i].max(0.3 * t.wwrr[i]),
            rmw_first_factor: self.base.rmw_first_factor,
            rmw_second_factor: self.base.rmw_second_factor,
            cta_fence_leak: self.base.cta_fence_leak,
            l1_preload: self.base.l1_preload * cache_mult,
            keep_stale_after_cg: self.base.keep_stale_after_cg * cache_mult,
            l1_invalidate_scope: self.base.l1_invalidate_scope,
        }
    }
}

/// The chips of the paper's Tab. 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Chip {
    /// Nvidia GTX 280 (Tesla, 2008) — the one chip where no weak behaviour
    /// was observed; omitted from the paper's result tables.
    Gtx280,
    /// Nvidia GTX 540m (Fermi, 2011) — "GTX5".
    Gtx540m,
    /// Nvidia Tesla C2075 (Fermi, 2011) — "TesC"; the fence-ineffective L1.
    TeslaC2075,
    /// Nvidia GTX 660 (Kepler, 2012) — "GTX6".
    Gtx660,
    /// Nvidia GTX Titan (Kepler, 2013) — "Titan".
    GtxTitan,
    /// Nvidia GTX 750 (Maxwell, 2014) — "GTX7"; almost fully strong.
    Gtx750,
    /// AMD Radeon HD 6570 (TeraScale 2, 2011) — "HD6570".
    RadeonHd6570,
    /// AMD Radeon HD 7970 (GCN 1.0, 2012) — "HD7970".
    RadeonHd7970,
}

impl Chip {
    /// All chips, in Tab. 1 order.
    pub const ALL: [Chip; 8] = [
        Chip::Gtx280,
        Chip::Gtx540m,
        Chip::TeslaC2075,
        Chip::Gtx660,
        Chip::GtxTitan,
        Chip::Gtx750,
        Chip::RadeonHd6570,
        Chip::RadeonHd7970,
    ];

    /// The chips appearing in the paper's result tables (all but the
    /// GTX 280).
    pub const TABLED: [Chip; 7] = [
        Chip::Gtx540m,
        Chip::TeslaC2075,
        Chip::Gtx660,
        Chip::GtxTitan,
        Chip::Gtx750,
        Chip::RadeonHd6570,
        Chip::RadeonHd7970,
    ];

    /// The Nvidia chips of the result tables.
    pub const NVIDIA_TABLED: [Chip; 5] = [
        Chip::Gtx540m,
        Chip::TeslaC2075,
        Chip::Gtx660,
        Chip::GtxTitan,
        Chip::Gtx750,
    ];

    /// This chip's profile.
    pub fn profile(self) -> &'static ChipProfile {
        match self {
            Chip::Gtx280 => &GTX280,
            Chip::Gtx540m => &GTX540M,
            Chip::TeslaC2075 => &TESLA_C2075,
            Chip::Gtx660 => &GTX660,
            Chip::GtxTitan => &GTX_TITAN,
            Chip::Gtx750 => &GTX750,
            Chip::RadeonHd6570 => &HD6570,
            Chip::RadeonHd7970 => &HD7970,
        }
    }

    /// Paper short name ("GTX5", "TesC", …).
    pub fn short(self) -> &'static str {
        self.profile().short
    }
}

impl std::fmt::Display for Chip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.profile().name)
    }
}

// Calibration notes: base probabilities are back-solved from the paper's
// obs/100k at the most effective incantations. `sb` needs both threads'
// read bypasses, so wr ≈ √(sb rate); `lb` needs one write bypass plus a
// favourable interleaving (≈ ×2); `mp` fires on either of two wwrr
// opportunities (≈ ×0.5); `coRR` needs the bypass plus the remote store
// landing inside the window (≈ ×2).

static GTX280: ChipProfile = ChipProfile {
    name: "GTX 280",
    short: "GTX280",
    vendor: Vendor::Nvidia,
    arch: "Tesla",
    year: 2008,
    num_sms: 30,
    warp_size: 32,
    base: Weights::STRONG,
};

static GTX540M: ChipProfile = ChipProfile {
    name: "GTX 540m",
    short: "GTX5",
    vendor: Vendor::Nvidia,
    arch: "Fermi",
    year: 2011,
    num_sms: 2,
    warp_size: 32,
    base: Weights {
        wr: 0.02,               // sb not reported; dlb-mp: 0 observed
        rw: 0.0,                // dlb-lb: 0 observed
        wwrr: 0.065,            // mp-L1 no-fence 4979
        rr_same: 0.50,          // coRR 11642
        rr_same_mixed: 0.022,   // coRR-L2-L1 no-fence 2556 minus keep-stale path
        shared: 0.085,          // mp-volatile 6301
        rmw_first_factor: 0.0,  // dlb-lb: 0 observed
        rmw_second_factor: 0.0, // cas-sl / sl-future: 0 observed
        cta_fence_leak: 0.0,    // mp-L1 membar.cta row: 0
        l1_preload: 0.35,
        keep_stale_after_cg: 0.09, // coRR-L2-L1 cta-fence row 1934
        l1_invalidate_scope: Some(FenceScope::Gl), // gl row: 0
    },
};

static TESLA_C2075: ChipProfile = ChipProfile {
    name: "Tesla C2075",
    short: "TesC",
    vendor: Vendor::Nvidia,
    arch: "Fermi",
    year: 2011,
    num_sms: 14,
    warp_size: 32,
    base: Weights {
        wr: 0.03,                // sb not reported; dlb-mp: 4
        rw: 0.05,                // dlb-lb 750 with atomics
        wwrr: 0.14,              // mp-L1 no-fence 10581
        rr_same: 0.38,           // coRR 8879
        rr_same_mixed: 0.035,    // coRR-L2-L1 no-fence 2982
        shared: 0.066,           // mp-volatile 4977
        rmw_first_factor: 0.85,  // dlb-lb 750
        rmw_second_factor: 0.01, // cas-sl 47
        cta_fence_leak: 0.03,    // mp-L1 cta row 308 over no-fence 10581
        l1_preload: 0.35,
        keep_stale_after_cg: 0.07, // coRR-L2-L1 fenced rows ~1428–2180
        l1_invalidate_scope: None, // no fence restores .ca orderings
    },
};

static GTX660: ChipProfile = ChipProfile {
    name: "GTX 660",
    short: "GTX6",
    vendor: Vendor::Nvidia,
    arch: "Kepler",
    year: 2012,
    num_sms: 5,
    warp_size: 32,
    base: Weights {
        wr: 0.10,                // dlb-mp 36
        rw: 0.03,                // dlb-lb 399
        wwrr: 0.048,             // mp-L1 no-fence 3635
        rr_same: 0.42,           // coRR 9599
        rr_same_mixed: 0.00001,  // coRR-L2-L1: 2
        shared: 0.036,           // mp-volatile 2753
        rmw_first_factor: 0.7,   // dlb-lb 399
        rmw_second_factor: 0.04, // cas-sl 43
        cta_fence_leak: 0.004,   // mp-L1 cta row 14
        l1_preload: 0.30,
        keep_stale_after_cg: 0.00001, // coRR-L2-L1: 2
        l1_invalidate_scope: Some(FenceScope::Gl),
    },
};

static GTX_TITAN: ChipProfile = ChipProfile {
    name: "GTX Titan",
    short: "Titan",
    vendor: Vendor::Nvidia,
    arch: "Kepler",
    year: 2013,
    num_sms: 14,
    warp_size: 32,
    base: Weights {
        wr: 0.085,              // sb 6673 (Tab. 6 col 12)
        rw: 0.04,               // lb 2247
        wwrr: 0.055,            // mp 4347; mp-L1 6011
        rr_same: 0.42,          // coRR 9985 (col 16)
        rr_same_mixed: 0.0008,  // coRR-L2-L1 no-fence: 141
        shared: 0.030,          // mp-volatile 2188
        rmw_first_factor: 2.9,  // dlb-lb 2292 vs lb 2247
        rmw_second_factor: 0.3, // cas-sl 512
        cta_fence_leak: 0.28,   // mp-L1 cta row 1696 over 6011
        l1_preload: 0.30,
        keep_stale_after_cg: 0.001, // coRR-L2-L1 contribution
        l1_invalidate_scope: Some(FenceScope::Gl),
    },
};

static GTX750: ChipProfile = ChipProfile {
    name: "GTX 750",
    short: "GTX7",
    vendor: Vendor::Nvidia,
    arch: "Maxwell",
    year: 2014,
    num_sms: 4,
    warp_size: 32,
    base: Weights {
        wr: 0.0,
        rw: 0.0,
        wwrr: 0.000015, // mp-L1 no-fence: 3
        rr_same: 0.0,
        rr_same_mixed: 0.0,
        shared: 0.0,
        rmw_first_factor: 0.0,
        rmw_second_factor: 0.0,
        cta_fence_leak: 0.0,
        l1_preload: 0.0,
        keep_stale_after_cg: 0.0,
        l1_invalidate_scope: Some(FenceScope::Gl),
    },
};

static HD6570: ChipProfile = ChipProfile {
    name: "Radeon HD 6570",
    short: "HD6570",
    vendor: Vendor::Amd,
    arch: "TeraScale 2",
    year: 2011,
    num_sms: 8,
    warp_size: 64,
    base: Weights {
        wr: 0.0,      // sb: not observed
        rw: 0.12,     // dlb-lb is "n/a" (compiler), but GCN-like hw rate
        wwrr: 0.17,   // OpenCL mp 9327 (Sec. 3.1.2)
        rr_same: 0.0, // coRR not observed on AMD
        rr_same_mixed: 0.0,
        shared: 0.02,
        rmw_first_factor: 0.5,
        rmw_second_factor: 0.48, // cas-sl 508
        cta_fence_leak: 0.0,     // OpenCL global fences work when present
        l1_preload: 0.0,
        keep_stale_after_cg: 0.0,
        l1_invalidate_scope: Some(FenceScope::Gl),
    },
};

static HD7970: ChipProfile = ChipProfile {
    name: "Radeon HD 7970",
    short: "HD7970",
    vendor: Vendor::Amd,
    arch: "GCN 1.0",
    year: 2012,
    num_sms: 32,
    warp_size: 64,
    base: Weights {
        wr: 0.00003, // sb: 2/100k, bank-conflict columns only
        rw: 0.55,    // lb 38664
        wwrr: 0.036, // mp 2542
        rr_same: 0.0,
        rr_same_mixed: 0.0,
        shared: 0.01,
        rmw_first_factor: 1.25, // dlb-lb 13591
        rmw_second_factor: 2.6, // cas-sl 748 (> mp rate: capped at perform time)
        cta_fence_leak: 0.0,
        l1_preload: 0.0,
        keep_stale_after_cg: 0.0,
        l1_invalidate_scope: Some(FenceScope::Gl),
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_resolve() {
        for chip in Chip::ALL {
            let p = chip.profile();
            assert!(!p.name.is_empty());
            assert!(p.num_sms > 0 && p.warp_size >= 32);
        }
        assert_eq!(Chip::ALL.len(), 8);
        assert_eq!(Chip::TABLED.len(), 7);
    }

    #[test]
    fn column_numbering_matches_tab6() {
        assert_eq!(Incantations::none().column(), 1);
        assert_eq!(Incantations::all_on().column(), 16);
        assert_eq!(Incantations::best_inter_cta().column(), 12);
        let combos = Incantations::all_combinations();
        assert_eq!(combos.len(), 16);
        for (i, c) in combos.iter().enumerate() {
            assert_eq!(c.column(), i + 1);
        }
        // Column 5 = bank conflicts alone.
        let c5 = combos[4];
        assert!(c5.bank_conflicts && !c5.memory_stress && !c5.thread_sync && !c5.thread_rand);
    }

    #[test]
    fn nvidia_needs_memory_stress_for_inter_cta() {
        let titan = Chip::GtxTitan.profile();
        for inc in Incantations::all_combinations() {
            let w = titan.weights(&inc);
            if !inc.memory_stress {
                assert_eq!(w.wr, 0.0, "sb must be impossible without stress ({inc})");
                assert_eq!(w.rw, 0.0, "lb must be impossible without stress ({inc})");
            }
        }
        // But coRR is reachable with bank conflicts + thread randomisation.
        let w = titan.weights(&Incantations {
            memory_stress: false,
            bank_conflicts: true,
            thread_sync: false,
            thread_rand: true,
        });
        assert!(w.rr_same > 0.0);
    }

    #[test]
    fn amd_weak_without_any_incantations() {
        let w = Chip::RadeonHd7970.profile().weights(&Incantations::none());
        assert!(w.rw > 0.1, "HD7970 lb must fire with no incantations");
        assert!(w.wwrr > 0.0);
        assert_eq!(w.rr_same, 0.0, "no coRR on AMD");
    }

    #[test]
    fn gtx280_is_strong() {
        for inc in Incantations::all_combinations() {
            let w = Chip::Gtx280.profile().weights(&inc);
            assert_eq!(w.wr + w.rw + w.wwrr + w.rr_same + w.shared, 0.0);
            assert_eq!(w.l1_preload, 0.0);
        }
    }

    #[test]
    fn bank_conflicts_dampen_inter_cta_on_nvidia() {
        let titan = Chip::GtxTitan.profile();
        let col12 = titan.weights(&Incantations::best_inter_cta());
        let col16 = titan.weights(&Incantations::all_on());
        assert!(
            col16.rw < col12.rw,
            "Tab. 6: lb 2247 (col 12) vs 486 (col 16)"
        );
        assert!(col16.wr < col12.wr);
    }

    #[test]
    fn thread_rand_boosts_corr() {
        let titan = Chip::GtxTitan.profile();
        let col15 = titan.weights(&Incantations {
            memory_stress: true,
            bank_conflicts: true,
            thread_sync: true,
            thread_rand: false,
        });
        let col16 = titan.weights(&Incantations::all_on());
        assert!(col16.rr_same > 2.0 * col15.rr_same, "Tab. 6: 3993 → 9985");
    }

    #[test]
    fn tesc_fences_never_invalidate_l1() {
        assert_eq!(Chip::TeslaC2075.profile().base.l1_invalidate_scope, None);
        assert_eq!(
            Chip::Gtx540m.profile().base.l1_invalidate_scope,
            Some(FenceScope::Gl)
        );
    }
}
