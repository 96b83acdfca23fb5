// CellExecutor: the seam between "which cells run" (PlanScheduler) and "how
// they run". InlineExecutor computes on the calling thread; PoolExecutor is
// the session's historical worker-pool fan-out. Both report each finished
// cell through a completion callback so the ResultBus can stream results as
// they complete. The interface is deliberately narrow, so RemoteExecutor
// (sim/remote_executor.hpp) runs cells on other machines by shipping
// CellSpecs out and CellResults back.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/cell.hpp"

namespace fare {

class CellExecutor {
public:
    /// Completion callback: done(job_index, result). May be invoked from
    /// worker threads, concurrently — the callback must be thread-safe.
    using DoneFn = std::function<void(std::size_t, CellResult)>;

    virtual ~CellExecutor();

    /// Execute every spec in `jobs` exactly once; blocks until all complete
    /// (or rethrows the first worker exception after draining).
    virtual void execute(const std::vector<const CellSpec*>& jobs,
                         const DoneFn& done) = 0;

    /// Resolved worker width (1 for inline execution).
    virtual std::size_t width() const = 0;
};

/// Serial execution on the calling thread — no pool, deterministic
/// completion order (job 0, 1, 2, ...).
class InlineExecutor final : public CellExecutor {
public:
    void execute(const std::vector<const CellSpec*>& jobs,
                 const DoneFn& done) override;
    std::size_t width() const override { return 1; }
};

/// Fan-out across the shared persistent worker pool (common/parallel).
/// Workers self-schedule, so completion order is unspecified; every cell is
/// a pure function of its spec, which is what keeps a pool run bit-identical
/// to an inline run of the same jobs.
class PoolExecutor final : public CellExecutor {
public:
    /// `threads` as in SessionOptions: 0 = auto (FARE_THREADS env, else
    /// hardware concurrency).
    explicit PoolExecutor(std::size_t threads = 0);

    void execute(const std::vector<const CellSpec*>& jobs,
                 const DoneFn& done) override;
    std::size_t width() const override;

private:
    std::size_t threads_;
};

/// The executor SessionOptions implies: inline when the resolved width is 1,
/// the pool otherwise.
std::unique_ptr<CellExecutor> make_cell_executor(std::size_t threads);

}  // namespace fare
