#pragma once
/// \file cache_hierarchy.hpp
/// \brief Factory helpers that attach a CacheHierarchy to each machine
/// family. One helper per silicon family; the builders pass the handful
/// of per-SKU numbers (core count, L3 slice size, clock) and the helper
/// fills in the family-invariant structure.
///
/// All quantities are public-spec or published-microbenchmark numbers
/// for the same silicon (Intel/AMD/IBM datasheets; the
/// Broadwell/Cascade Lake cache study of Alappat et al. for the Xeon
/// latency ladder shape). None of them is calibrated against the paper:
/// the paper reports only DRAM-sized working sets, and the conformance
/// suite proves those stay byte-identical with the hierarchy attached
/// (see docs/MODELING.md, "Cache ladder").

#include "machines/machine.hpp"

namespace nodebench::machines {

/// Skylake-SP / Cascade Lake server core (Sawtooth, Eagle, Manzano):
/// 32 KiB private L1d, 1 MiB private L2, non-inclusive shared L3 of
/// 1.375 MiB per core slice.
[[nodiscard]] CacheHierarchy skylakeServerCacheHierarchy(int coresPerSocket,
                                                         double l3MibPerSocket,
                                                         double clockGHz);

/// Knights Landing (Trinity, Theta): 32 KiB private L1d, 1 MiB L2 per
/// two-core tile, and the 16 GiB MCDRAM in quad-cache mode modeled as a
/// memory-side cache level shared by the whole chip. DDR4 sits behind
/// the MCDRAM tag check, which is why the DRAM latency exceeds flat-mode
/// DDR numbers.
[[nodiscard]] CacheHierarchy knlCacheHierarchy(int cores, double clockGHz);

/// IBM Power9 (Summit, Sierra, Lassen): 32 KiB L1d, 512 KiB L2 per
/// two-core pair, 10 MiB eDRAM L3 region per pair (modeled chip-wide as
/// one shared pool, matching its NUCA all-to-chip visibility).
[[nodiscard]] CacheHierarchy power9CacheHierarchy(int coresPerSocket,
                                                  double clockGHz);

/// AMD Zen 2/3 EPYC (Perlmutter, Polaris, Frontier-class hosts): 32 KiB
/// L1d, 512 KiB private L2, and an L3 complex of `l3MibPerCcx` shared by
/// `coresPerCcx` cores.
[[nodiscard]] CacheHierarchy epycCacheHierarchy(int coresPerCcx,
                                                double l3MibPerCcx,
                                                double clockGHz);

}  // namespace nodebench::machines
