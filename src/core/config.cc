#include "src/core/config.h"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

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

double ParsePercent(const std::string& setting, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*text == '\0' || *end != '\0' || !(value >= 0.0 && value <= 100.0)) {
    throw std::invalid_argument(setting + ": expected a percentage in [0, 100], got '" + text +
                                "'");
  }
  return value;
}

SimConfig WithEnvOverrides(SimConfig sim) {
  const auto reject = [](const char* name, const char* value, const char* expected) {
    throw std::invalid_argument(std::string(name) + ": expected " + expected + ", got '" +
                                value + "'");
  };
  const auto positive = [](const char* name, auto& field) {
    if (const long long value = PositiveEnvInt(name); value > 0) {
      field = static_cast<std::remove_reference_t<decltype(field)>>(value);
    }
  };
  positive("NUMALP_MAX_EPOCHS", sim.max_epochs);
  positive("NUMALP_ACCESSES_PER_EPOCH", sim.accesses_per_thread_per_epoch);
  positive("NUMALP_SEED", sim.seed);
  positive("NUMALP_SHARDS", sim.shards);
  if (PositiveEnvInt("NUMALP_SHARDS_FORCE") > 0) {
    sim.shards_force = true;
  }
  if (const char* mode = std::getenv("NUMALP_PROFILE_MODE");
      mode != nullptr && !ParseProfileMode(mode, &sim.profile_mode)) {
    reject("NUMALP_PROFILE_MODE", mode, "exact | sketch");
  }
  positive("NUMALP_PROFILE_THRESHOLD", sim.profile_sketch.admit_threshold);
  positive("NUMALP_PROFILE_FILTER_CAPACITY", sim.profile_sketch.filter_capacity);
  positive("NUMALP_PROFILE_SKETCH_WIDTH", sim.profile_sketch.sketch_width);
  if (const char* profile = std::getenv("NUMALP_FAULT_PROFILE"); profile != nullptr) {
    const auto parsed = ParseFaultProfile(profile);
    if (!parsed) {
      reject("NUMALP_FAULT_PROFILE", profile, "off | frag | pressure | churn");
    }
    sim.faults.profile = *parsed;
  }
  // Rate overrides may legitimately be 0, so presence is checked directly.
  const std::pair<const char*, double*> percents[] = {
      {"NUMALP_FAULT_ALLOC_PCT", &sim.faults.alloc_fail_pct},
      {"NUMALP_FAULT_MIGRATE_PCT", &sim.faults.migrate_fail_pct},
      {"NUMALP_FAULT_LARGE_MIGRATE_PCT", &sim.faults.large_migrate_fail_pct},
      {"NUMALP_FAULT_PRESSURE_PCT", &sim.faults.pressure_pct}};
  for (const auto& [name, pct] : percents) {
    if (const char* value = std::getenv(name); value != nullptr) {
      *pct = ParsePercent(name, value);
    }
  }
  return sim;
}

}  // namespace numalp
