// Length-prefixed JSON framing — the wire format every fabric connection
// (coordinator <-> worker) speaks:
//
//   +------+------+------------------+
//   | "FRJ1" (4B) | length (4B, BE)  |  payload: one JSON document (length B)
//   +------+------+------------------+
//
// The fixed magic rejects strangers (an HTTP probe, a port scanner) on the
// first 4 bytes; the big-endian length bounds the read; payloads above
// kMaxFrameBytes are refused before any allocation. Decoding failures are
// Expected errors — a garbage frame costs the connection, never the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "net/socket.hpp"

namespace fare::net {

/// Frame magic: FARe Remote Json, version 1.
inline constexpr char kFrameMagic[4] = {'F', 'R', 'J', '1'};

/// Hard ceiling on one frame's payload. A full-fidelity CellResult with a
/// long training curve is a few tens of KB; 64 MiB leaves three orders of
/// magnitude of headroom while still refusing a hostile 4 GiB length word.
inline constexpr std::size_t kMaxFrameBytes = 64ull << 20;

/// Serialize one payload into a framed byte string.
std::string encode_frame(const std::string& payload);

/// Read outcome: a payload, or a clean end-of-stream between frames
/// (nullopt). Every other condition — bad magic, oversized length, EOF or
/// stall mid-frame — is an Expected error; the connection should be dropped.
using FrameRead = Expected<std::optional<std::string>>;

/// Read exactly one frame. `stall_timeout_ms` bounds each wait for more
/// bytes (negative = wait forever): a peer that goes silent mid-frame is
/// reported as an error, a peer with nothing to say yet (timeout before the
/// first header byte) as the error "idle timeout".
FrameRead read_frame(Socket& socket, int stall_timeout_ms,
                     std::size_t max_bytes = kMaxFrameBytes);

/// Frame + send one payload.
Expected<bool> write_frame(Socket& socket, const std::string& payload);

/// True when a read_frame error is the between-frames "idle timeout" (the
/// caller's poll loop should just try again).
bool is_idle_timeout(const std::string& error);

}  // namespace fare::net
