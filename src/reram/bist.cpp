#include "reram/bist.hpp"

namespace fare {

BistResult bist_scan(Crossbar& xbar) {
    // The march writes 0 everywhere and reads back (a stuck cell reading
    // non-zero is SA1), writes max everywhere and reads back (one reading
    // below max is SA0), then rewrites the saved contents. Its outcome
    // follows from the fault overlay without stepping it: the detected map
    // is the SA0/SA1 planes (a soft stuck-at reads like a hard one), every
    // cell takes three writes (an array-level charge), and the stored levels
    // end as they began.
    BistResult result;
    result.detected = xbar.fault_map().without_soft_flags();
    xbar.add_uniform_writes(3);
    // 2 passes x (write + read) + the restore write, per cell.
    result.cell_ops = 5ull * xbar.rows() * xbar.cols();
    return result;
}

}  // namespace fare
