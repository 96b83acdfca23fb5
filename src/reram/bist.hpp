// Built-in self-test (BIST) for SAF detection.
//
// Paper §II-A / §IV-A: a BIST circuit identifies the type and location of
// stuck-at faults; FARe enables it pre-deployment and at each epoch boundary
// to refresh the fault map, at ~0.13% area and timing overhead. We model the
// standard two-pass March-style test: write all-0 / read (cells reading
// non-zero are SA1), write all-max / read (cells reading below max are SA0).
// Original cell contents are restored afterwards. The march is computed, not
// stepped cell by cell: its detected map, write wear and restored contents
// all follow from the crossbar's fault overlay.
#pragma once

#include "reram/crossbar.hpp"

namespace fare {

struct BistResult {
    FaultMap detected;
    /// Cell operations performed (2 writes + 2 reads per cell + restore),
    /// consumed by the timing model's overhead accounting.
    std::uint64_t cell_ops = 0;
};

/// Scan one crossbar and return the detected fault map (soft flags dropped).
/// Charges the march's three writes to every cell.
/// Postcondition: the crossbar's stored contents are unchanged.
BistResult bist_scan(Crossbar& xbar);

}  // namespace fare
