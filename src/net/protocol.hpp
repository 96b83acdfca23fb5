// The sweep-fabric message vocabulary, carried as one JSON object per frame
// (net/frame.hpp). Seven message types cover the whole protocol:
//
//   handshake   hello (worker) -> welcome [challenge] -> auth
//               (the auth leg only when the coordinator holds a shared
//               secret; see auth_proof below)
//   dealing     assign (full CellSpec; keys are not invertible) -> result
//               | cell_error (the cell threw on the worker)
//   liveness    heartbeat (worker -> coordinator, periodic, also while busy)
//
// Decoding untrusted peers goes through parse_json with tightened
// JsonLimits (shallow depth, frame-sized byte cap) and returns Expected —
// a malformed message costs the connection, never the process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "net/frame.hpp"
#include "sim/cell.hpp"

namespace fare::net {

/// Bumped when the vocabulary changes incompatibly; both sides refuse a
/// mismatch at handshake instead of failing mid-plan.
inline constexpr int kProtocolVersion = 2;

/// The one peer role announced in hello.
inline constexpr const char* kRoleWorker = "worker";

struct WireMessage {
    enum class Type {
        kHello,      ///< role, protocol
        kWelcome,    ///< protocol, challenge? (present iff auth is required)
        kAuth,       ///< proof — answer to the welcome challenge
        kAssign,     ///< job, spec
        kResult,     ///< job, result
        kCellError,  ///< job, error — the cell raised on the worker
        kHeartbeat,  ///< (no payload)
    };

    Type type = Type::kHeartbeat;
    int protocol = kProtocolVersion;       ///< hello / welcome
    std::string role;                      ///< hello
    std::uint64_t job = 0;                 ///< assign / result / cell_error
    CellSpec spec;                         ///< assign
    CellResult result;                     ///< result
    std::string error;                     ///< cell_error
    std::string challenge;                 ///< welcome: "" = no auth required
    std::string proof;                     ///< auth
};

const char* wire_type_name(WireMessage::Type type);

/// Encode into one frame payload (a single-line JSON object).
std::string encode_message(const WireMessage& message);

/// Strict decode with untrusted-peer limits. Unknown types, missing fields
/// and over-deep documents are Expected errors.
Expected<WireMessage> decode_message(const std::string& payload);

/// Challenge/response proof for the shared-secret handshake: a stable hash
/// of secret:challenge:role, so the secret itself never crosses the wire.
/// This authenticates peers on a trusted LAN (a typo'd --secret, a stray
/// process); it is NOT cryptography — run the fabric inside a trust
/// boundary, exactly as before.
std::string auth_proof(const std::string& secret, const std::string& challenge,
                       const std::string& role);

/// Client side of the handshake: send hello, await welcome, answer its
/// challenge (if any) with auth_proof.
/// Failure reasons include a protocol mismatch and "coordinator requires a
/// shared secret" when a challenge arrives with no secret configured.
Expected<bool> client_handshake(Socket& socket, const std::string& role,
                                const std::string& secret, int timeout_ms);

// Convenience composers for the fixed-shape messages.
WireMessage make_hello(const std::string& role);
WireMessage make_welcome(const std::string& challenge = "");
WireMessage make_auth(const std::string& proof);
WireMessage make_assign(std::uint64_t job, const CellSpec& spec);
WireMessage make_result(std::uint64_t job, const CellResult& result);
WireMessage make_cell_error(std::uint64_t job, const std::string& error);
WireMessage make_heartbeat();

/// Send one message as a frame.
Expected<bool> send_message(Socket& socket, const WireMessage& message);

/// Receive + decode one message. nullopt on clean EOF; idle timeouts and
/// protocol violations surface as Expected errors (see net/frame.hpp).
Expected<std::optional<WireMessage>> recv_message(Socket& socket,
                                                  int stall_timeout_ms);

}  // namespace fare::net
