// Client side of the resident scan service: `refscan scan --remote SOCKET`.
//
// The client still loads the tree from disk itself (so load failures
// behave exactly as a local scan), ships it with the full options image,
// and reconstructs the ScanResult from the reply. Transport failure is
// never an error the user sees twice: the client retries with a bounded
// exponential backoff (BackoffPolicy), and only after the budget is
// exhausted does it return nullopt — the CLI then falls back to a local
// in-process scan, whose stdout is byte-identical by construction. A
// *reachable* server that fails the request (kServeErr: injected fault,
// drain) is different: that becomes a degraded result (exit 2),
// because silently re-running a request the server rejected would mask the
// failure the operator asked to see.

#ifndef REFSCAN_SERVE_CLIENT_H_
#define REFSCAN_SERVE_CLIENT_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/checkers/engine.h"
#include "src/support/ipc.h"
#include "src/support/source.h"

namespace refscan {

// Runs one scan against the server. nullopt = unreachable after the whole
// backoff budget (caller falls back to a local scan; `note`, when non-null,
// says why). kServeBusy replies consume retry attempts with backoff.
std::optional<ScanResult> RemoteScan(const SourceTree& tree, const ScanOptions& options,
                                     const std::string& socket_path,
                                     const BackoffPolicy& backoff = {},
                                     std::string* note = nullptr);

// One text-reply request (kServeHealthReq / kServeStatsReq). False when the
// server is unreachable or replies with anything but kServeText.
bool RemoteRequestText(const std::string& socket_path, uint8_t type, std::string_view payload,
                       std::string& reply, std::string* error = nullptr);

}  // namespace refscan

#endif  // REFSCAN_SERVE_CLIENT_H_
