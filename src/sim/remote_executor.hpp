// The distributed sweep fabric: a coordinator-side WorkerPool + the
// RemoteExecutor that plugs it into the existing execution stack, and the
// worker-side run_worker() loop that fare-worker wraps.
//
//   fare-run --listen H:P ──► WorkerPool (accept + per-peer reader threads)
//        SimSession               │ assign / result / heartbeat frames
//        └─ RemoteExecutor ───────┤
//                                 ▼
//             fare-worker ──► run_worker(): run_cell() per assign
//
// RemoteExecutor implements CellExecutor, so everything above the executor
// seam — PlanScheduler dedup, DiskCellCache persistence, ResultBus ordering,
// sinks — works unchanged over the wire. Because every cell is a pure
// function of its spec, a fleet run is byte-identical to a single-process
// run of the same plan, even after workers die and their in-flight cells are
// re-dealt (duplicate results are resolved first-wins; the payloads agree).
//
// Fault tolerance, all bounded by FabricConfig:
//   * a worker whose connection goes silent past heartbeat_timeout_ms is
//     declared dead; its in-flight cell is re-dealt with exponential backoff;
//   * a worker that heartbeats but sits on a cell past cell_deadline_ms is a
//     straggler: the cell is dealt *again* to another worker and the first
//     finisher wins;
//   * a cell that fails max_attempts assignments fails the plan (execute()
//     throws ResourceError) instead of retrying forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "sim/executor.hpp"

namespace fare {

/// Knobs for the coordinator side of the fabric. The defaults suit LAN
/// fleets running real training cells (seconds to minutes per cell).
struct FabricConfig {
    /// A worker silent for this long (no result, no heartbeat) is dead.
    int heartbeat_timeout_ms = 10000;
    /// Straggler re-deal: a cell in flight longer than this is dealt again
    /// to a second worker (first result wins). 0 disables the deadline.
    int cell_deadline_ms = 0;
    /// Assignments a cell may consume (initial deal + re-deals) before the
    /// plan fails with ResourceError.
    int max_attempts = 4;
    /// Base delay before a failed cell is re-dealt; doubles per attempt.
    int retry_backoff_ms = 200;
    /// Shared secret for the fabric handshake ("" = open, the default).
    /// When set, every hello is answered with a welcome carrying a
    /// challenge nonce and the peer must answer with the matching
    /// auth_proof before it is registered — a wrong or missing proof costs
    /// the connection (net/protocol.hpp documents the trust model).
    std::string secret;
    /// Optional log stream for coordinator events (connects, deaths,
    /// re-deals). Null = silent.
    std::ostream* log = nullptr;
};

/// Coordinator endpoint: listens for fare-worker connections and keeps a
/// live table of connected workers. One pool may serve several plans in
/// turn (one RemoteExecutor each). Thread-safe; owned threads: one acceptor
/// plus one reader per connected peer.
class WorkerPool {
public:
    /// Bind and start accepting. `port` 0 picks an ephemeral port — read it
    /// back with port().
    static Expected<std::unique_ptr<WorkerPool>> listen(
        const std::string& host, std::uint16_t port, FabricConfig config = {});

    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    std::uint16_t port() const;
    /// Workers currently connected and not declared dead.
    std::size_t connected() const;
    /// Block until at least `n` workers are connected (sweeps usually start
    /// the coordinator first). Returns false if `timeout_ms` elapses first;
    /// negative waits forever.
    bool wait_for_workers(std::size_t n, int timeout_ms = -1);

private:
    friend class RemoteExecutor;
    struct Impl;
    explicit WorkerPool(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
};

/// CellExecutor that deals jobs to a WorkerPool's workers instead of local
/// threads. Blocks in execute() until every job has a result (or throws
/// ResourceError when a cell exhausts its attempts). Multiple RemoteExecutor
/// lifetimes may share one pool, but execute() calls must not overlap.
class RemoteExecutor final : public CellExecutor {
public:
    explicit RemoteExecutor(WorkerPool& pool);

    void execute(const std::vector<const CellSpec*>& jobs,
                 const DoneFn& done) override;
    std::size_t width() const override;

private:
    WorkerPool& pool_;
};

/// Worker-side knobs. The two fault hooks exist so tests can script
/// misbehaviour deterministically.
struct WorkerOptions {
    /// Heartbeat send cadence; keep well under the coordinator's
    /// heartbeat_timeout_ms.
    int heartbeat_interval_ms = 1000;
    /// Shared secret answering the coordinator's challenge ("" = none). A
    /// challenge with no secret configured fails fast with a clear error.
    std::string secret;
    /// Keep retrying a refused/unreachable connection for this long before
    /// giving up (0 = single attempt). Lets workers start before the
    /// coordinator binds its port.
    int connect_retry_ms = 0;
    /// Fault hook — straggler: after completing this many cells, accept
    /// further assigns but never run them (heartbeats keep flowing). 0 = off.
    std::size_t hang_after = 0;
    /// Fault hook — crash: after completing this many cells, drop the
    /// connection on the next assign and return. 0 = off.
    std::size_t quit_after = 0;
    /// Optional log stream (assignments, errors). Null = silent.
    std::ostream* log = nullptr;
};

/// Connect to a coordinator and serve assigns until the coordinator hangs
/// up. Returns a process exit code: 0 on clean end-of-stream, 1 on
/// connection or protocol failure. Runs run_cell() on the calling thread;
/// start several fare-worker processes (or threads) for parallelism.
int run_worker(const std::string& host, std::uint16_t port,
               WorkerOptions options = {});

}  // namespace fare
