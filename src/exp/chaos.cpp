#include "exp/chaos.hpp"

#include <cstdio>
#include <stdexcept>

namespace bbrnash {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the site name, so textual sites hash stably across runs.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

const char* to_string(ChaosClass cls) {
  switch (cls) {
    case ChaosClass::kTrialException:
      return "trial-exception";
    case ChaosClass::kEventStall:
      return "event-stall";
    case ChaosClass::kWallStall:
      return "wall-stall";
    case ChaosClass::kCheckpointWriteFail:
      return "checkpoint-write-fail";
    case ChaosClass::kCheckpointTorn:
      return "checkpoint-torn";
    case ChaosClass::kNeCell:
      return "ne-cell";
    case ChaosClass::kWorkerKill:
      return "worker-kill";
    case ChaosClass::kWorkerHang:
      return "worker-hang";
    case ChaosClass::kSupervisorCrash:
      return "supervisor-crash";
  }
  return "unknown";
}

ChaosInjector::ChaosInjector(std::uint64_t seed, double rate)
    : seed_(seed), rate_(rate) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument{"chaos rate must be in [0, 1]"};
  }
}

bool ChaosInjector::should_fire(ChaosClass cls, std::string_view site) {
  if (rate_ <= 0.0) return false;
  // Hash first (no lock needed): the decision is a pure function of
  // (seed, class, site), so two threads racing on the same site agree.
  const std::uint64_t h =
      mix64(seed_ ^ mix64(static_cast<std::uint64_t>(cls) + 1) ^ fnv1a(site));
  // Map the hash to [0, 1); with the default rate of 1.0 every site fires.
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  if (u >= rate_) return false;

  std::lock_guard<std::mutex> lock{mu_};
  const auto [it, inserted] = fired_sites_.emplace(
      static_cast<std::uint8_t>(cls), std::string{site});
  if (!inserted) return false;  // fire-once per (class, site)
  ++fired_by_class_[static_cast<std::uint8_t>(cls) & 15];
  return true;
}

std::uint64_t ChaosInjector::fired(ChaosClass cls) const {
  std::lock_guard<std::mutex> lock{mu_};
  return fired_by_class_[static_cast<std::uint8_t>(cls) & 15];
}

std::uint64_t ChaosInjector::total_fired() const {
  std::lock_guard<std::mutex> lock{mu_};
  return static_cast<std::uint64_t>(fired_sites_.size());
}

std::string ChaosInjector::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "chaos seed=%llu rate=%g fired=%llu",
                static_cast<unsigned long long>(seed_), rate_,
                static_cast<unsigned long long>(total_fired()));
  return buf;
}

}  // namespace bbrnash
