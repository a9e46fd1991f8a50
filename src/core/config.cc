#include "src/core/config.h"

#include <cstdlib>

namespace numalp {

std::string_view NameOf(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLinux4K:
      return "Linux-4K";
    case PolicyKind::kThp:
      return "THP";
    case PolicyKind::kCarrefour2M:
      return "Carrefour-2M";
    case PolicyKind::kReactiveOnly:
      return "Reactive";
    case PolicyKind::kConservativeOnly:
      return "Conservative";
    case PolicyKind::kCarrefourLp:
      return "Carrefour-LP";
  }
  return "?";
}

std::string_view NameOf(ProfileMode mode) {
  switch (mode) {
    case ProfileMode::kExact:
      return "exact";
    case ProfileMode::kSketch:
      return "sketch";
  }
  return "?";
}

bool ParseProfileMode(std::string_view text, ProfileMode* out) {
  if (text == "exact") {
    *out = ProfileMode::kExact;
    return true;
  }
  if (text == "sketch") {
    *out = ProfileMode::kSketch;
    return true;
  }
  return false;
}

PolicyConfig MakePolicyConfig(PolicyKind kind) {
  PolicyConfig config;
  config.kind = kind;
  switch (kind) {
    case PolicyKind::kLinux4K:
      break;
    case PolicyKind::kThp:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      break;
    case PolicyKind::kCarrefour2M:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      break;
    case PolicyKind::kReactiveOnly:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      config.use_reactive = true;
      break;
    case PolicyKind::kConservativeOnly:
      // "The original Carrefour runtime (working on 4kB pages) together with
      // the conservative component" (Section 4.1).
      config.use_carrefour = true;
      config.use_conservative = true;
      break;
    case PolicyKind::kCarrefourLp:
      // "It is more practical and involves less overhead to enable large
      // pages in the beginning and disable them later" (Section 3.2).
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      config.use_reactive = true;
      config.use_conservative = true;
      break;
  }
  return config;
}

long long PositiveEnvInt(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return 0;
  }
  const long long parsed = std::atoll(value);
  return parsed > 0 ? parsed : 0;
}

SimConfig WithEnvOverrides(SimConfig sim) {
  if (const long long epochs = PositiveEnvInt("NUMALP_MAX_EPOCHS"); epochs > 0) {
    sim.max_epochs = static_cast<int>(epochs);
  }
  if (const long long accesses = PositiveEnvInt("NUMALP_ACCESSES_PER_EPOCH"); accesses > 0) {
    sim.accesses_per_thread_per_epoch = static_cast<std::uint64_t>(accesses);
  }
  if (const long long seed = PositiveEnvInt("NUMALP_SEED"); seed > 0) {
    sim.seed = static_cast<std::uint64_t>(seed);
  }
  if (const long long shards = PositiveEnvInt("NUMALP_SHARDS"); shards > 0) {
    sim.shards = static_cast<int>(shards);
  }
  if (PositiveEnvInt("NUMALP_SHARDS_FORCE") > 0) {
    sim.shards_force = true;
  }
  if (const char* mode = std::getenv("NUMALP_PROFILE_MODE"); mode != nullptr) {
    ParseProfileMode(mode, &sim.profile_mode);
  }
  if (const long long threshold = PositiveEnvInt("NUMALP_PROFILE_THRESHOLD"); threshold > 0) {
    sim.profile_sketch.admit_threshold = static_cast<std::uint64_t>(threshold);
  }
  if (const long long capacity = PositiveEnvInt("NUMALP_PROFILE_FILTER_CAPACITY");
      capacity > 0) {
    sim.profile_sketch.filter_capacity = static_cast<std::uint64_t>(capacity);
  }
  if (const long long width = PositiveEnvInt("NUMALP_PROFILE_SKETCH_WIDTH"); width > 0) {
    sim.profile_sketch.sketch_width = static_cast<std::uint32_t>(width);
  }
  if (const char* profile = std::getenv("NUMALP_FAULT_PROFILE"); profile != nullptr) {
    if (const auto parsed = ParseFaultProfile(profile)) {
      sim.faults.profile = *parsed;
    }
  }
  // Rate overrides are percentages and may legitimately be 0, so presence is
  // checked directly instead of through PositiveEnvInt.
  if (const char* pct = std::getenv("NUMALP_FAULT_ALLOC_PCT"); pct != nullptr) {
    sim.faults.alloc_fail_pct = std::strtod(pct, nullptr);
  }
  if (const char* pct = std::getenv("NUMALP_FAULT_MIGRATE_PCT"); pct != nullptr) {
    sim.faults.migrate_fail_pct = std::strtod(pct, nullptr);
  }
  if (const char* pct = std::getenv("NUMALP_FAULT_LARGE_MIGRATE_PCT"); pct != nullptr) {
    sim.faults.large_migrate_fail_pct = std::strtod(pct, nullptr);
  }
  if (const char* pct = std::getenv("NUMALP_FAULT_PRESSURE_PCT"); pct != nullptr) {
    sim.faults.pressure_pct = std::strtod(pct, nullptr);
  }
  return sim;
}

}  // namespace numalp
