#include "reram/fault_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {

FaultMap::FaultMap(std::uint16_t rows, std::uint16_t cols)
    : rows_(rows),
      cols_(cols),
      words_((static_cast<std::size_t>(cols) + kWordBits - 1) / kWordBits),
      sa0_(rows * words_, 0),
      sa1_(rows * words_, 0),
      soft_(rows * words_, 0) {}

void FaultMap::add(std::uint16_t row, std::uint16_t col, FaultType type,
                   bool soft) {
    clear(row, col);  // range check, and an overwrite drops the old counts
    const std::size_t w = word(row, col);
    if (type == FaultType::kSA0) {
        sa0_[w] |= bit(col);
        ++num_sa0_;
    } else {
        sa1_[w] |= bit(col);
        ++num_sa1_;
    }
    if (soft) {
        soft_[w] |= bit(col);
        ++num_soft_;
    }
}

void FaultMap::clear(std::uint16_t row, std::uint16_t col) {
    FARE_CHECK(row < rows_ && col < cols_, "fault position out of range");
    const std::size_t w = word(row, col);
    const Word b = bit(col);
    if ((sa0_[w] & b) != 0) --num_sa0_;
    if ((sa1_[w] & b) != 0) --num_sa1_;
    if ((soft_[w] & b) != 0) --num_soft_;
    sa0_[w] &= ~b;
    sa1_[w] &= ~b;
    soft_[w] &= ~b;
}

std::optional<FaultType> FaultMap::at(std::uint16_t row, std::uint16_t col) const {
    FARE_CHECK(row < rows_ && col < cols_, "fault position out of range");
    const std::size_t w = word(row, col);
    if ((sa0_[w] & bit(col)) != 0) return FaultType::kSA0;
    if ((sa1_[w] & bit(col)) != 0) return FaultType::kSA1;
    return std::nullopt;
}

FaultMap FaultMap::without_columns(const std::vector<bool>& columns) const {
    FARE_CHECK(columns.size() == cols_, "column mask width mismatch");
    std::vector<Word> keep_row(words_, 0);
    for (std::uint16_t c = 0; c < cols_; ++c)
        if (!columns[c]) keep_row[c / kWordBits] |= bit(c);
    FaultMap out = *this;
    out.num_sa0_ = out.num_sa1_ = out.num_soft_ = 0;
    for (std::size_t i = 0; i < sa0_.size(); ++i) {
        const Word keep = keep_row[i % words_];
        out.sa0_[i] &= keep;
        out.sa1_[i] &= keep;
        out.soft_[i] &= keep;
        out.num_sa0_ += static_cast<std::size_t>(std::popcount(out.sa0_[i]));
        out.num_sa1_ += static_cast<std::size_t>(std::popcount(out.sa1_[i]));
        out.num_soft_ += static_cast<std::size_t>(std::popcount(out.soft_[i]));
    }
    return out;
}

FaultMap FaultMap::without_soft_flags() const {
    FaultMap out = *this;
    std::fill(out.soft_.begin(), out.soft_.end(), Word{0});
    out.num_soft_ = 0;
    return out;
}

double FaultMap::fault_density() const {
    const std::size_t cells = static_cast<std::size_t>(rows_) * cols_;
    if (cells == 0) return 0.0;
    return static_cast<double>(num_faults()) / static_cast<double>(cells);
}

std::vector<FaultMap> inject_faults(std::size_t num_crossbars, std::uint16_t rows,
                                    std::uint16_t cols,
                                    const FaultInjectionConfig& config) {
    FARE_CHECK(config.density >= 0.0 && config.density <= 1.0,
               "fault density must lie in [0,1]");
    FARE_CHECK(config.sa1_fraction >= 0.0 && config.sa1_fraction <= 1.0,
               "sa1_fraction must lie in [0,1]");
    Rng rng(config.seed);
    const std::size_t cells = static_cast<std::size_t>(rows) * cols;
    std::vector<FaultMap> maps;
    maps.reserve(num_crossbars);
    for (std::size_t x = 0; x < num_crossbars; ++x) {
        FaultMap map(rows, cols);
        // Clustered fault centres: the per-crossbar Poisson rate is itself
        // Gamma-distributed (mean = density * cells), so a few crossbars
        // absorb most faults while many stay near-clean — the paper's
        // "higher fault density" crossbars (§V-A, citing [6]).
        const double mean = config.density * static_cast<double>(cells);
        double rate = mean;
        if (config.cluster_shape > 0.0 && mean > 0.0)
            rate = rng.next_gamma(config.cluster_shape,
                                  mean / config.cluster_shape);
        std::size_t count = static_cast<std::size_t>(rng.next_poisson(rate));
        count = std::min(count, cells);
        std::size_t placed = 0;
        while (placed < count) {
            const auto r = static_cast<std::uint16_t>(rng.next_below(rows));
            const auto c = static_cast<std::uint16_t>(rng.next_below(cols));
            if (map.is_faulty(r, c)) continue;  // uniform without replacement
            const FaultType t =
                rng.next_bool(config.sa1_fraction) ? FaultType::kSA1 : FaultType::kSA0;
            map.add(r, c, t);
            ++placed;
        }
        maps.push_back(std::move(map));
    }
    return maps;
}

std::size_t inject_additional_faults(FaultMap& map, double added_density,
                                     double sa1_fraction, Rng& rng, bool soft) {
    FARE_CHECK(added_density >= 0.0 && added_density <= 1.0,
               "added density must lie in [0,1]");
    const std::size_t cells = static_cast<std::size_t>(map.rows()) * map.cols();
    const double mean = added_density * static_cast<double>(cells);
    std::size_t count = static_cast<std::size_t>(rng.next_poisson(mean));
    count = std::min(count, cells - map.num_faults());
    std::size_t placed = 0;
    std::size_t attempts = 0;
    const std::size_t max_attempts = cells * 4;
    while (placed < count && attempts++ < max_attempts) {
        const auto r = static_cast<std::uint16_t>(rng.next_below(map.rows()));
        const auto c = static_cast<std::uint16_t>(rng.next_below(map.cols()));
        if (map.is_faulty(r, c)) continue;
        const FaultType t =
            rng.next_bool(sa1_fraction) ? FaultType::kSA1 : FaultType::kSA0;
        map.add(r, c, t, soft);
        ++placed;
    }
    return placed;
}

FaultMap repair_worst_columns(const FaultMap& map, std::size_t num_spares,
                              double sa1_weight) {
    // Rank columns by weighted fault count.
    std::vector<double> column_cost(map.cols(), 0.0);
    map.for_each_fault([&](const CellFault& f) {
        column_cost[f.col] += (f.type == FaultType::kSA1) ? sa1_weight : 1.0;
    });
    std::vector<std::uint16_t> order(map.cols());
    for (std::uint16_t c = 0; c < map.cols(); ++c) order[c] = c;
    std::stable_sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
        return column_cost[a] > column_cost[b];
    });
    std::vector<bool> repaired(map.cols(), false);
    for (std::size_t i = 0; i < std::min<std::size_t>(num_spares, order.size()); ++i) {
        if (column_cost[order[i]] <= 0.0) break;  // nothing left to repair
        repaired[order[i]] = true;
    }
    return map.without_columns(repaired);
}

double mean_fault_density(const std::vector<FaultMap>& maps) {
    if (maps.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& m : maps) sum += m.fault_density();
    return sum / static_cast<double>(maps.size());
}

}  // namespace fare
