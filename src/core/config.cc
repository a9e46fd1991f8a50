#include "src/core/config.h"

#include <cerrno>
#include <climits>
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

double ParsePercent(const std::string& setting, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*text == '\0' || *end != '\0' || !(value >= 0.0 && value <= 100.0)) {
    throw std::invalid_argument(setting + ": expected a percentage in [0, 100], got '" + text +
                                "'");
  }
  return value;
}

long long ParseInt(const std::string& setting, const char* text, long long min, long long max) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (*text == '\0' || *end != '\0' || errno == ERANGE || value < min || value > max) {
    throw std::invalid_argument(setting + ": expected an integer in [" + std::to_string(min) +
                                ", " + std::to_string(max) + "], got '" + text + "'");
  }
  return value;
}

std::optional<long long> EnvInt(const char* name, long long min, long long max) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return std::nullopt;
  }
  return ParseInt(name, value, min, max);
}

SimConfig WithEnvOverrides(SimConfig sim) {
  const auto reject = [](const char* name, const char* value, const char* expected) {
    throw std::invalid_argument(std::string(name) + ": expected " + expected + ", got '" +
                                value + "'");
  };
  // Integer overrides, ranged as docs/KNOBS.md types them.
  const auto integer = [](const char* name, long long min, long long max, auto& field) {
    if (const auto value = EnvInt(name, min, max)) {
      field = static_cast<std::remove_reference_t<decltype(field)>>(*value);
    }
  };
  integer("NUMALP_MAX_EPOCHS", 1, INT_MAX, sim.max_epochs);
  integer("NUMALP_ACCESSES_PER_EPOCH", 1, LLONG_MAX, sim.accesses_per_thread_per_epoch);
  integer("NUMALP_SEED", 1, LLONG_MAX, sim.seed);
  integer("NUMALP_SHARDS", 1, INT_MAX, sim.shards);
  int force = 0;  // a boolean: positive enables, 0 stays off
  integer("NUMALP_SHARDS_FORCE", 0, INT_MAX, force);
  sim.shards_force = sim.shards_force || force > 0;
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
