#include "reram/online_tolerance.hpp"

#include <algorithm>
#include <cstdlib>

#include "reram/bist.hpp"

namespace fare {

OnlineToleranceEngine::CrossbarState& OnlineToleranceEngine::state(
    std::size_t xb, const Crossbar& xbar) {
    if (xbars_.size() <= xb) xbars_.resize(xb + 1);
    CrossbarState& st = xbars_[xb];
    if (st.substituted.empty()) {
        st.substituted.assign(xbar.cols(), false);
        st.known = FaultMap(xbar.rows(), xbar.cols());
    }
    return st;
}

void OnlineToleranceEngine::note_arrivals(
    std::uint64_t step, const std::vector<std::size_t>& touched) {
    for (std::size_t xb : touched) {
        if (xbars_.size() <= xb) xbars_.resize(xb + 1);
        // Keep the *earliest* pending arrival: latency is measured from the
        // first damage the next march of this crossbar will discover.
        if (!xbars_[xb].pending_since) xbars_[xb].pending_since = step;
    }
}

double OnlineToleranceEngine::signature_error(const Crossbar& xbar,
                                              const CrossbarState& st) {
    // Healthy cells read what they store and a faulty cell reads its stuck
    // level, so only faulty cells add error.
    std::uint64_t abs_err = 0;
    xbar.fault_map().for_each_fault([&](const CellFault& f) {
        if (st.substituted[f.col])
            return;  // reads routed to the fault-free spare
        if (st.known.is_faulty(f.row, f.col))
            return;  // folded into the fault-adjusted golden value
        const int stuck = f.type == FaultType::kSA0 ? 0 : Crossbar::max_level();
        const int delta = stuck - static_cast<int>(xbar.stored(f.row, f.col));
        abs_err += static_cast<std::uint64_t>(std::abs(delta));
    });
    const double cells = static_cast<double>(xbar.rows()) *
                         static_cast<double>(xbar.cols());
    return static_cast<double>(abs_err) /
           (static_cast<double>(Crossbar::max_level()) * cells);
}

void OnlineToleranceEngine::repair_crossbar(std::uint64_t step,
                                            Accelerator& accel, std::size_t xb,
                                            OnlineRoundOutcome& outcome) {
    Crossbar& xbar = accel.crossbar(xb);
    // Targeted march: exact detection, but the march writes wear the cells.
    const BistResult scan = bist_scan(xbar);
    outcome.march_cell_ops += scan.cell_ops;

    CrossbarState& st = state(xb, xbar);
    std::vector<std::size_t> hard_count(xbar.cols(), 0);
    scan.detected.for_each_fault([&](const CellFault& f) {
        if (st.substituted[f.col]) return;  // already on spare
        if (!st.known.is_faulty(f.row, f.col)) {
            st.known.add(f.row, f.col, f.type);
            ++stats_.faults_detected;
            outcome.state_changed = true;
        }
        if (xbar.fault_map().is_soft(f.row, f.col)) {
            // Targeted re-programming: forming pulses clear the soft
            // stuck-at; the pulses are charged as writes (repair wears).
            xbar.reform(f.row, f.col, spec_.reprogram_pulses);
            outcome.repair_pulses += spec_.reprogram_pulses;
            stats_.repair_writes += spec_.reprogram_pulses;
            ++stats_.soft_repaired;
            st.known.clear(f.row, f.col);  // healthy again; a re-fail counts anew
            outcome.state_changed = true;
        } else {
            ++hard_count[f.col];
        }
    });

    // Redundant-column substitution: worst hard columns first (count desc,
    // column asc — fully deterministic) while spares remain.
    std::vector<std::uint16_t> order;
    for (std::uint16_t c = 0; c < xbar.cols(); ++c)
        if (hard_count[c] > 0) order.push_back(c);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint16_t a, std::uint16_t b) {
                         return hard_count[a] > hard_count[b];
                     });
    std::size_t uncovered = 0;
    for (const std::uint16_t col : order) {
        if (st.spares_used < spec_.spare_columns) {
            st.substituted[col] = true;
            ++st.spares_used;
            ++stats_.columns_substituted;
            outcome.state_changed = true;
        } else {
            ++uncovered;
        }
    }
    // Exhaustion = spares used up with hard faults left uncovered: the
    // crossbar degrades to fault-aware remap (residual faults stay in the
    // mitigation view; nothing crashes).
    st.exhausted = uncovered > 0;

    // Detection-latency sample: this march discovers everything that arrived
    // on this crossbar since its last march.
    if (st.pending_since) {
        stats_.latency_steps_sum += step - *st.pending_since;
        ++stats_.latency_samples;
        st.pending_since.reset();
    }
}

OnlineRoundOutcome OnlineToleranceEngine::detection_round(
    std::uint64_t step, Accelerator& accel,
    const std::vector<std::size_t>& in_use) {
    OnlineRoundOutcome outcome;
    ++stats_.detection_rounds;
    if (in_use.empty()) return outcome;

    for (std::size_t xb : in_use)
        FARE_CHECK(xb < accel.num_crossbars(), "in-use crossbar out of range");
    // Rotating partial march window.
    std::vector<bool> to_march(accel.num_crossbars(), false);
    const std::size_t window = std::min(spec_.march_window, in_use.size());
    for (std::size_t k = 0; k < window; ++k)
        to_march[in_use[(cursor_ + k) % in_use.size()]] = true;
    cursor_ = (cursor_ + window) % in_use.size();

    // Error-bounded readback everywhere else; escalate noisy crossbars.
    for (std::size_t xb : in_use) {
        if (to_march[xb]) continue;
        ++outcome.readback_checks;
        ++stats_.readback_checks;
        const Crossbar& xbar = accel.crossbar(xb);
        if (signature_error(xbar, state(xb, xbar)) > spec_.readback_tolerance)
            to_march[xb] = true;
    }

    // March + repair in ascending crossbar order — deterministic.
    for (std::size_t xb = 0; xb < to_march.size(); ++xb)
        if (to_march[xb]) repair_crossbar(step, accel, xb, outcome);
    stats_.march_cell_ops += outcome.march_cell_ops;

    std::uint64_t exhausted = 0;
    for (const CrossbarState& st : xbars_)
        if (st.exhausted) ++exhausted;
    stats_.crossbars_exhausted = exhausted;
    return outcome;
}

FaultMap OnlineToleranceEngine::repaired_map(std::size_t crossbar_index,
                                             const FaultMap& truth) const {
    if (spares_used(crossbar_index) == 0) return truth;
    return truth.without_columns(xbars_[crossbar_index].substituted);
}

bool OnlineToleranceEngine::exhausted(std::size_t crossbar_index) const {
    return crossbar_index < xbars_.size() && xbars_[crossbar_index].exhausted;
}

std::size_t OnlineToleranceEngine::spares_used(std::size_t crossbar_index) const {
    return crossbar_index < xbars_.size() ? xbars_[crossbar_index].spares_used : 0;
}

}  // namespace fare
