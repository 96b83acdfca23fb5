#include "records.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "sim/serialization.hpp"

namespace farebench {

std::vector<std::string> canonical_records(const std::string& plan_name,
                                           const fare::ResultSet& results) {
    std::vector<std::string> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        fare::CellResult cell = results.cells[i];
        cell.wall_seconds = 0.0;
        cell.from_cache = false;
        cell.run.train.preprocess_seconds = 0.0;
        cell.run.train.train_seconds = 0.0;
        out.push_back(fare::cell_to_json(plan_name, i, cell));
    }
    return out;
}

std::uint64_t fnv1a64(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::vector<std::uint64_t> read_digests(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read digest file " + path);
    std::vector<std::uint64_t> digests;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::size_t index = 0;
        std::string hex;
        if (!(fields >> index >> hex) || index != digests.size() || hex.size() != 16)
            throw std::runtime_error("malformed digest line in " + path + ": " + line);
        digests.push_back(std::stoull(hex, nullptr, 16));
    }
    return digests;
}

void write_digests(const std::string& path, const std::string& header,
                   const std::vector<std::string>& records) {
    const std::filesystem::path target(path);
    if (target.has_parent_path()) std::filesystem::create_directories(target.parent_path());
    std::ofstream out(target);
    out << "# " << header << '\n';
    for (std::size_t i = 0; i < records.size(); ++i) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016" PRIx64, fnv1a64(records[i]));
        out << i << ' ' << hex << '\n';
    }
    if (!out) throw std::runtime_error("cannot write digest file " + path);
}

double fare_acc_gain_pts(const fare::ResultSet& results, std::size_t first,
                         std::size_t count) {
    const std::size_t end = std::min(results.size(), first + count);
    std::unordered_map<std::string, double> accuracy_of_key;
    for (std::size_t i = first; i < end; ++i)
        accuracy_of_key.emplace(results.cells[i].spec.key(), results.cells[i].accuracy());
    std::set<std::string> seen;
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = first; i < end; ++i) {
        const fare::CellResult& cell = results.cells[i];
        if (cell.spec.scheme != fare::Scheme::kFARe || !seen.insert(cell.spec.key()).second)
            continue;
        fare::CellSpec partner = cell.spec;
        partner.scheme = fare::Scheme::kFaultUnaware;
        const auto it = accuracy_of_key.find(partner.key());
        if (it == accuracy_of_key.end()) continue;
        sum += 100.0 * (cell.accuracy() - it->second);
        ++pairs;
    }
    return pairs ? sum / static_cast<double>(pairs)
                 : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace farebench
