#include "src/support/faultinject.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "src/support/telemetry.h"

namespace refscan {

namespace {

// Known site names: rejecting unknown sites at parse time turns a typo in a
// CI spec into a hard error instead of a silently un-faulted run.
constexpr std::string_view kKnownSites[] = {
    "fs.read",     "cache.load",    "cache.store",   "parser.parse",
    "checker.run", "ipa.summarize", "serve.request", "ipc.write",
};

bool IsKnownSite(std::string_view site) {
  for (const std::string_view s : kKnownSites) {
    if (site == s) {
      return true;
    }
  }
  return false;
}

bool ParseU64(std::string_view text, uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// FNV-1a over a string, folded into a running state.
uint64_t FnvMix(uint64_t state, std::string_view text) {
  for (const char c : text) {
    state ^= static_cast<uint8_t>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

// splitmix64 finalizer: spreads the FNV state so `% N` selections are
// unbiased across subjects.
uint64_t Finalize(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Registry {
  std::mutex mutex;
  FaultPlan plan;
  // `once` bookkeeping: hit count per (rule index, subject). Cleared on
  // every (re)arm so scans replay identically.
  std::map<std::string, uint64_t> once_counters;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // leaked: outlives all threads
  return *registry;
}

}  // namespace

namespace faultinject_detail {

std::atomic<bool> g_armed{false};

void MaybeFaultSlow(std::string_view site, std::string_view subject) {
  FaultRule fired;
  bool any = false;
  {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (size_t r = 0; r < reg.plan.rules.size() && !any; ++r) {
      const FaultRule& rule = reg.plan.rules[r];
      if (rule.site != site) {
        continue;
      }
      switch (rule.trigger) {
        case FaultRule::Trigger::kAlways:
          any = true;
          break;
        case FaultRule::Trigger::kFile:
          any = GlobMatch(rule.glob, subject);
          break;
        case FaultRule::Trigger::kEvery: {
          const uint64_t h =
              Finalize(FnvMix(FnvMix(reg.plan.seed ^ 0xcbf29ce484222325ULL, site), subject));
          any = rule.every_n > 0 && h % rule.every_n == 0;
          break;
        }
        case FaultRule::Trigger::kOnce: {
          std::string key = std::to_string(r);
          key.push_back('\0');
          key.append(subject);
          any = reg.once_counters[key]++ == 0;
          break;
        }
      }
      if (any) {
        fired = rule;
      }
    }
  }
  if (!any) {
    return;
  }
  // Observability: every fired rule counts, totalled and per site, so a
  // trace/metrics dump shows how much of a degraded run was injected.
  TelemetryCount("fault.fired");
  TelemetryCount(std::string("fault.fired.") + std::string(site));
  if (fired.action == FaultRule::Action::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fired.delay_ms));
    return;
  }
  throw FaultInjected(std::string(site),
                      "injected fault at " + std::string(site) + " (" + std::string(subject) + ")");
}

}  // namespace faultinject_detail

bool GlobMatch(std::string_view glob, std::string_view text) {
  // Iterative wildcard match with single-star backtracking.
  size_t g = 0, t = 0;
  size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (g < glob.size() && (glob[g] == '?' || glob[g] == text[t])) {
      ++g;
      ++t;
    } else if (g < glob.size() && glob[g] == '*') {
      star = g++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      g = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (g < glob.size() && glob[g] == '*') {
    ++g;
  }
  return g == glob.size();
}

bool ParseFaultSpec(std::string_view spec, FaultPlan& out, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };

  FaultPlan plan;
  while (!spec.empty()) {
    const size_t comma = spec.find(',');
    std::string_view item = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{} : spec.substr(comma + 1);
    while (!item.empty() && item.front() == ' ') {
      item.remove_prefix(1);
    }
    while (!item.empty() && item.back() == ' ') {
      item.remove_suffix(1);
    }
    if (item.empty()) {
      continue;
    }

    if (item.starts_with("seed=")) {
      if (!ParseU64(item.substr(5), plan.seed)) {
        return fail("bad seed in '" + std::string(item) + "'");
      }
      continue;
    }

    const size_t c1 = item.find(':');
    if (c1 == std::string_view::npos) {
      return fail("expected site:trigger in '" + std::string(item) + "'");
    }
    FaultRule rule;
    rule.site = std::string(item.substr(0, c1));
    if (!IsKnownSite(rule.site)) {
      return fail("unknown fault site '" + rule.site + "'");
    }

    std::string_view rest = item.substr(c1 + 1);
    const size_t c2 = rest.find(':');
    const std::string_view trigger = rest.substr(0, c2);
    const std::string_view action =
        c2 == std::string_view::npos ? std::string_view{} : rest.substr(c2 + 1);

    if (trigger == "always") {
      rule.trigger = FaultRule::Trigger::kAlways;
    } else if (trigger == "once") {
      rule.trigger = FaultRule::Trigger::kOnce;
    } else if (trigger.starts_with("every=")) {
      rule.trigger = FaultRule::Trigger::kEvery;
      if (!ParseU64(trigger.substr(6), rule.every_n) || rule.every_n == 0) {
        return fail("bad every=N in '" + std::string(item) + "'");
      }
    } else if (trigger.starts_with("file=")) {
      rule.trigger = FaultRule::Trigger::kFile;
      rule.glob = std::string(trigger.substr(5));
      if (rule.glob.empty()) {
        return fail("empty glob in '" + std::string(item) + "'");
      }
    } else {
      return fail("unknown trigger '" + std::string(trigger) + "'");
    }

    if (action.empty() || action == "throw") {
      rule.action = FaultRule::Action::kThrow;
    } else if (action.starts_with("delay=")) {
      rule.action = FaultRule::Action::kDelay;
      uint64_t ms = 0;
      if (!ParseU64(action.substr(6), ms) || ms > 60'000) {
        return fail("bad delay=MS in '" + std::string(item) + "'");
      }
      rule.delay_ms = static_cast<uint32_t>(ms);
    } else {
      return fail("unknown action '" + std::string(action) + "'");
    }
    plan.rules.push_back(std::move(rule));
  }

  out = std::move(plan);
  return true;
}

void ArmFaults(FaultPlan plan) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.plan = std::move(plan);
  reg.once_counters.clear();
  faultinject_detail::g_armed.store(!reg.plan.rules.empty(), std::memory_order_relaxed);
}

void DisarmFaults() { ArmFaults(FaultPlan{}); }

bool ArmFaultsFromEnv(std::string* error, const char* var) {
  const char* value = std::getenv(var);
  if (value == nullptr || *value == '\0') {
    return true;
  }
  FaultPlan plan;
  if (!ParseFaultSpec(value, plan, error)) {
    return false;
  }
  ArmFaults(std::move(plan));
  return true;
}

ScopedFaultArm::ScopedFaultArm(FaultPlan plan) {
  Registry& reg = GetRegistry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    previous_ = reg.plan;
    previous_armed_ = faultinject_detail::g_armed.load(std::memory_order_relaxed);
  }
  ArmFaults(std::move(plan));
}

namespace {

FaultPlan ParseOrThrow(std::string_view spec) {
  FaultPlan plan;
  std::string error;
  if (!ParseFaultSpec(spec, plan, &error)) {
    throw std::invalid_argument("bad fault spec: " + error);
  }
  return plan;
}

}  // namespace

ScopedFaultArm::ScopedFaultArm(std::string_view spec) : ScopedFaultArm(ParseOrThrow(spec)) {}

ScopedFaultArm::~ScopedFaultArm() {
  if (previous_armed_) {
    ArmFaults(std::move(previous_));
  } else {
    DisarmFaults();
  }
}

}  // namespace refscan
