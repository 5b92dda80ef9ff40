#include "src/support/governor.h"

#include <utility>

#include "src/support/telemetry.h"

namespace refscan {
namespace governor_detail {

constinit thread_local DeadlineState g_deadline;

namespace {

[[noreturn]] void Trip(std::string what) {
  TelemetryCount("governor.deadline_trips");
  throw DeadlineExceeded(std::move(what));
}

}  // namespace

void ThrowDeadlineExceeded(const char* where) {
  Trip(std::string("per-file deadline exceeded in ") + where + " loop");
}

}  // namespace governor_detail

void CheckDeadlineNow() {
  if (DeadlinePassed()) {
    governor_detail::Trip("deadline exceeded before the stage began");
  }
}

}  // namespace refscan
