#include "reram/accelerator.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace fare {

Accelerator::Accelerator(const AcceleratorConfig& config) : config_(config) {
    FARE_CHECK(config.num_tiles > 0, "accelerator needs at least one tile");
    tiles_.reserve(static_cast<std::size_t>(config.num_tiles));
    for (int i = 0; i < config.num_tiles; ++i) tiles_.emplace_back(config.tile);
}

std::size_t Accelerator::num_crossbars() const {
    return tiles_.size() * static_cast<std::size_t>(config_.tile.crossbars_per_tile);
}

Crossbar& Accelerator::crossbar(std::size_t flat_index) {
    FARE_CHECK(flat_index < num_crossbars(), "crossbar index out of range");
    const auto per_tile = static_cast<std::size_t>(config_.tile.crossbars_per_tile);
    return tiles_[flat_index / per_tile].crossbar(flat_index % per_tile);
}

const Crossbar& Accelerator::crossbar(std::size_t flat_index) const {
    FARE_CHECK(flat_index < num_crossbars(), "crossbar index out of range");
    const auto per_tile = static_cast<std::size_t>(config_.tile.crossbars_per_tile);
    return tiles_[flat_index / per_tile].crossbar(flat_index % per_tile);
}

Tile& Accelerator::tile(std::size_t i) {
    FARE_CHECK(i < tiles_.size(), "tile index out of range");
    return tiles_[i];
}

CrossbarRange Accelerator::allocate(std::size_t count) {
    if (next_free_ + count > num_crossbars())
        throw ResourceError("accelerator out of crossbars: requested " +
                            std::to_string(count) + ", available " +
                            std::to_string(crossbars_available()));
    CrossbarRange range{next_free_, count};
    next_free_ += count;
    return range;
}

std::size_t Accelerator::crossbars_available() const {
    return num_crossbars() - next_free_;
}

void Accelerator::inject_pre_deployment_faults(const FaultInjectionConfig& config) {
    auto maps = inject_faults(num_crossbars(), config_.tile.crossbar_rows,
                              config_.tile.crossbar_cols, config);
    for (std::size_t i = 0; i < maps.size(); ++i)
        crossbar(i).set_fault_map(std::move(maps[i]));
}

std::size_t Accelerator::inject_fault_arrivals(double added_density,
                                               double sa1_fraction, Rng& rng,
                                               bool soft,
                                               std::vector<std::size_t>* touched) {
    std::size_t added = 0;
    for (std::size_t i = 0; i < num_crossbars(); ++i) {
        const std::size_t placed =
            crossbar(i).add_random_faults(added_density, sa1_fraction, rng, soft);
        if (placed > 0 && touched != nullptr) touched->push_back(i);
        added += placed;
    }
    return added;
}

std::vector<FaultMap> Accelerator::bist_scan_all() {
    std::vector<FaultMap> maps;
    maps.reserve(num_crossbars());
    for (std::size_t i = 0; i < num_crossbars(); ++i)
        maps.push_back(bist_scan(crossbar(i)).detected);
    return maps;
}

std::vector<FaultMap> Accelerator::true_fault_maps() const {
    std::vector<FaultMap> maps;
    maps.reserve(num_crossbars());
    for (std::size_t i = 0; i < num_crossbars(); ++i)
        maps.push_back(crossbar(i).fault_map());
    return maps;
}

double Accelerator::total_area_mm2() const {
    return config_.tile.area_mm2 * static_cast<double>(tiles_.size());
}

double Accelerator::peak_power_w() const {
    return config_.tile.power_w * static_cast<double>(tiles_.size());
}

}  // namespace fare
