// Deterministic fault-injection registry (DESIGN.md §5.9).
//
// A production scanner meets unreadable files, corrupted cache objects and
// pathological inputs rarely enough that the degraded paths rot unless they
// can be exercised on demand. This registry lets a test, a CI job, or an
// operator arm *named sites* in the pipeline so that specific operations
// fail — deterministically, replaying byte-identically at any `--jobs`
// value — without touching the code under test.
//
// Sites (the strings passed to MaybeFault by the pipeline):
//
//   fs.read          one on-disk file read (subject: tree-relative path)
//   cache.load       one cache object load (subject: object path)
//   cache.store      one cache object store (subject: object path)
//   parser.parse     one file parse (subject: file path)
//   checker.run      one file's checking stage (subject: file path)
//   ipa.summarize    the whole-tree summary stage (subject: "<tree>")
//   serve.request    one resident-server request (subject: request name,
//                    e.g. "scan" — see src/serve)
//   ipc.write        one outgoing IPC frame; the frame is truncated
//                    mid-write so the peer observes a mid-frame cut
//                    (subject: decimal frame type)
//
// Spec grammar — comma-separated rules, each `site:trigger[:action]`, plus
// an optional `seed=N` entry that reseeds the `every=` selector:
//
//   triggers   always            fire on every hit
//              once              fire on the first hit per (rule, subject)
//              every=N           fire for a deterministic pseudo-random 1/N
//                                of subjects (hash of seed×site×subject —
//                                NOT a call counter, so the selection is
//                                independent of thread interleaving)
//              file=GLOB         fire when the subject matches the glob
//                                (`*` and `?`, matched over the whole path)
//   actions    throw (default)   throw FaultInjected; what that costs is
//                                the site's: `fs.read` fails the read,
//                                a sandboxed site quarantines the file,
//                                `cache.load` counts a corrupt miss,
//                                `ipc.write` cuts the frame
//              delay=MS          sleep MS milliseconds, then succeed (pairs
//                                with ScanOptions::file_timeout_ms)
//
// Examples: `fs.read:every=7`, `parser.parse:file=*.broken.c`,
// `cache.load:once`, `checker.run:file=slow.c:delay=50`.
//
// Arming is process-global: `REFSCAN_FAULTS` (ArmFaultsFromEnv) or the
// CLI's `--faults` (ArmFaults), or scoped for a test (`ScopedFaultArm`,
// which restores the previous plan). When disarmed, MaybeFault is one
// relaxed atomic load — the scan pipeline pays nothing for carrying the
// hooks.

#ifndef REFSCAN_SUPPORT_FAULTINJECT_H_
#define REFSCAN_SUPPORT_FAULTINJECT_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace refscan {

// Thrown by an armed site.
class FaultInjected : public std::runtime_error {
 public:
  FaultInjected(std::string site, const std::string& what)
      : std::runtime_error(what), site_(std::move(site)) {}

  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

struct FaultRule {
  enum class Trigger : uint8_t { kAlways, kOnce, kEvery, kFile };
  enum class Action : uint8_t { kThrow, kDelay };

  std::string site;
  Trigger trigger = Trigger::kAlways;
  uint64_t every_n = 1;   // kEvery
  std::string glob;       // kFile
  Action action = Action::kThrow;
  uint32_t delay_ms = 0;  // kDelay
};

struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;
};

// Parses the spec grammar above. On failure returns false and (optionally)
// a one-line diagnostic; `out` is left untouched.
bool ParseFaultSpec(std::string_view spec, FaultPlan& out, std::string* error = nullptr);

// Installs / clears the process-global plan. Arming resets all `once`
// counters, so repeated scans replay identically.
void ArmFaults(FaultPlan plan);
void DisarmFaults();

// Arms from the REFSCAN_FAULTS environment variable (unset/empty = no-op,
// returns true). A malformed spec returns false with a diagnostic — callers
// should fail loudly rather than silently scan un-faulted.
bool ArmFaultsFromEnv(std::string* error = nullptr, const char* var = "REFSCAN_FAULTS");

// RAII arming: installs `plan` and restores the previously-armed plan (or
// the disarmed state) on destruction. The string overload throws
// std::invalid_argument with ParseFaultSpec's diagnostic on a malformed
// spec, and leaves the previous plan armed: a typo must fail the caller, not
// run it un-faulted.
class ScopedFaultArm {
 public:
  explicit ScopedFaultArm(FaultPlan plan);
  explicit ScopedFaultArm(std::string_view spec);
  ~ScopedFaultArm();

  ScopedFaultArm(const ScopedFaultArm&) = delete;
  ScopedFaultArm& operator=(const ScopedFaultArm&) = delete;

 private:
  FaultPlan previous_;
  bool previous_armed_ = false;
};

namespace faultinject_detail {
extern std::atomic<bool> g_armed;
void MaybeFaultSlow(std::string_view site, std::string_view subject);
}  // namespace faultinject_detail

inline bool FaultsArmed() {
  return faultinject_detail::g_armed.load(std::memory_order_relaxed);
}

// The per-site hook. Throws FaultInjected or sleeps when an armed rule
// fires; otherwise (and always when disarmed) returns immediately.
inline void MaybeFault(std::string_view site, std::string_view subject) {
  if (!FaultsArmed()) {
    return;
  }
  faultinject_detail::MaybeFaultSlow(site, subject);
}

// `*`/`?` wildcard match over the whole string (exposed for tests).
bool GlobMatch(std::string_view glob, std::string_view text);

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_FAULTINJECT_H_
