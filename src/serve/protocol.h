// Wire protocol for `refscan serve`, the resident scan service.
//
// One request/response pair per frame exchange over the shared Unix-socket
// framing (support/ipc.h). A connection is a session: the client may send
// any number of requests back to back; each gets exactly one reply frame.
// Frame types:
//
//   kServeScanReq      → kServeScanResp | kServeBusy | kServeErr
//   kServeStatsReq     → kServeText (JSON object of server counters)
//   kServeHealthReq    → kServeText ("ok")
//   any other type     → kServeErr ("unknown request type N"), type 3 too
//
// kServeBusy is the backpressure shed: the admission queue is full and the
// client should back off and retry. kServeErr carries a one-line reason;
// the client surfaces it as a degraded scan (exit 2), never as silence.
//
// A scan request (EncodeScanRequest, src/checkers/scan_stages.h) carries
// the options and every file, so the server needs no filesystem access and
// the client's loaded
// tree is scanned bit-for-bit. The reply (EncodeScanResult) carries the
// whole ScanResult, so a remote scan is indistinguishable from a local one.

#ifndef REFSCAN_SERVE_PROTOCOL_H_
#define REFSCAN_SERVE_PROTOCOL_H_

#include <cstdint>

#include "src/checkers/scan_stages.h"

namespace refscan {

constexpr uint8_t kServeScanReq = 1;
constexpr uint8_t kServeStatsReq = 2;
constexpr uint8_t kServeHealthReq = 4;
constexpr uint8_t kServeScanResp = 5;
constexpr uint8_t kServeText = 6;
constexpr uint8_t kServeBusy = 7;
constexpr uint8_t kServeErr = 8;

}  // namespace refscan

#endif  // REFSCAN_SERVE_PROTOCOL_H_
