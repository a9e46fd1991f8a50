#include "src/report/options.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

extern char** environ;

namespace numalp::report {

namespace {

// The whole of `text` as a number that satisfies `valid`; anything else
// throws std::invalid_argument naming `setting` and what was `expected`.
double ParseReal(const std::string& setting, const char* text, const char* expected,
                 bool (*valid)(double)) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*text == '\0' || *end != '\0' || !valid(value)) {
    throw std::invalid_argument(setting + ": expected " + expected + ", got '" + text + "'");
  }
  return value;
}

std::string ChoiceName(const std::string& choice) { return choice; }
std::string ChoiceName(FaultProfile choice) { return std::string(NameOf(choice)); }

// One of `choices`, named by ChoiceName.
template <typename T>
SettingValue Enum(T* field, std::vector<T> choices) {
  std::string names;
  for (const T& choice : choices) {
    names += (names.empty() ? "" : "|") + ChoiceName(choice);
  }
  return {names, [=](const std::string& setting, const char* text) {
            for (const T& choice : choices) {
              if (ChoiceName(choice) == text) {
                *field = choice;
                return;
              }
            }
            throw std::invalid_argument(setting + ": expected " + names + ", got '" + text + "'");
          }};
}

SettingValue Percent(double* field) {
  return {"PCT", [field](const std::string& setting, const char* text) {
            *field = ParseReal(setting, text, "a percentage in [0, 100]",
                               [](double value) { return value >= 0.0 && value <= 100.0; });
          }};
}

// An integer >= 0 read as a switch: positive enables, 0 leaves it off.
SettingValue Enables(bool* field) {
  return {"N", [field](const std::string& setting, const char* text) {
            *field = ParseInt(setting, text, 0, INT_MAX) > 0;
          }};
}

// A name parser's result, or a message naming the setting and `names`.
template <typename T, typename Parse>
Setting NameFlag(const char* flag, T* out, Parse parse, const char* names, std::string help) {
  return {flag, nullptr,
          {names,
           [out, parse, names](const std::string& setting, const char* text) {
             const auto parsed = parse(text);
             if (!parsed) {
               throw std::invalid_argument(setting + ": expected " + names + ", got '" + text +
                                           "'");
             }
             *out = *parsed;
           }},
          std::move(help)};
}

void PrintUsage(std::FILE* out, const ToolInfo& info, const std::vector<Setting>& settings) {
  std::fprintf(out, "%s — %s (bench id: %s)\n\nusage: %s [options]\n", info.name,
               info.description, info.bench_id, info.name);
  const auto line = [out](std::string left, const std::string& help) {
    if (left.size() > 24) {
      left += "\n" + std::string(26, ' ');
    }
    std::fprintf(out, "  %-24s %s\n", left.c_str(), help.c_str());
  };
  for (const Setting& setting : settings) {
    const std::string& placeholder = setting.value.placeholder;
    if (setting.flag == nullptr) {
      line(std::string(setting.env) + "=" + placeholder, setting.help);
    } else {
      line(placeholder.empty() ? setting.flag : std::string(setting.flag) + " " + placeholder,
           setting.env == nullptr ? setting.help : setting.help + " [" + setting.env + "]");
    }
  }
  line("--help", "this message");
  std::fprintf(out, "[VAR]: the environment variable that also sets it; the flag wins\n");
}

// A NUMALP_* variable outside the table's env column is a typo or a deleted
// knob; either way it would be silently ignored, so it is refused instead.
void RejectUnknownEnv(const std::vector<Setting>& settings) {
  std::string known;
  for (const Setting& setting : settings) {
    if (setting.env != nullptr) {
      known += std::string(known.empty() ? "" : ", ") + setting.env;
    }
  }
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view variable(*entry);
    if (variable.rfind("NUMALP_", 0) != 0) {
      continue;
    }
    const std::string name(variable.substr(0, variable.find('=')));
    if (std::none_of(settings.begin(), settings.end(), [&](const Setting& setting) {
          return setting.env != nullptr && name == setting.env;
        })) {
      throw std::invalid_argument(name + ": not a setting; the environment sets only " + known);
    }
  }
}

// ParseToolArgs without the handling of malformed settings, which throw
// std::invalid_argument.
Options ParseArgs(int argc, char** argv, const ToolInfo& info,
                  const std::vector<Setting>& extras) {
  Options options;
  std::vector<Setting> settings = UniformSettings(&options);
  settings.insert(settings.end(), extras.begin(), extras.end());
  RejectUnknownEnv(settings);
  for (const Setting& setting : settings) {
    if (setting.env == nullptr) {
      continue;
    }
    if (const char* text = std::getenv(setting.env); text != nullptr) {
      setting.value.store(setting.env, text);
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout, info, settings);
      std::exit(0);
    }
    const auto row = std::find_if(settings.begin(), settings.end(), [&](const Setting& setting) {
      return setting.flag != nullptr && arg == setting.flag;
    });
    const bool takes_value = row != settings.end() && !row->value.placeholder.empty();
    if (row == settings.end() || (takes_value && i + 1 >= argc)) {
      PrintUsage(stderr, info, settings);
      std::exit(2);
    }
    row->value.store(arg, takes_value ? argv[++i] : nullptr);
  }
  return options;
}

}  // namespace

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

SettingValue Text(std::string* field, const char* placeholder) {
  return {placeholder, [field](const std::string& setting, const char* text) {
            if (*text == '\0') {
              throw std::invalid_argument(setting + ": expected a non-empty value");
            }
            *field = text;
          }};
}

SettingValue Presence(bool* field) {
  return {"", [field](const std::string&, const char*) { *field = true; }};
}

std::vector<Setting> UniformSettings(Options* options) {
  SimConfig& sim = options->sim;
  FaultConfig& faults = sim.faults;
  return {
      {"--format", nullptr, Enum<std::string>(&options->format, {"md", "csv", "jsonl"}),
       "stdout format (default md, an aligned table)"},
      {"--out-dir", nullptr, Text(&options->out_dir, "DIR"),
       "also write the rows to DIR/<bench id>.{csv,jsonl}"},
      {"--jobs", "NUMALP_JOBS", Int(&options->jobs, 1, INT_MAX),
       "grid worker threads (default: the host's cores)"},
      {"--seed", nullptr, Int(&sim.seed, 1, LLONG_MAX),
       "base seed of the sweep's seed axis (default 42)"},
      {"--epochs", "NUMALP_MAX_EPOCHS", Int(&sim.max_epochs, 1, INT_MAX),
       "cap epochs per run (default 600)"},
      {"--accesses", "NUMALP_ACCESSES_PER_EPOCH",
       Int(&sim.accesses_per_thread_per_epoch, 1, LLONG_MAX),
       "accesses per thread per epoch (default 4096)"},
      {"--shards", "NUMALP_SHARDS", Int(&sim.shards, 1, INT_MAX),
       "intra-cell shard threads, clamped to the host budget; never changes results"},
      {nullptr, "NUMALP_SHARDS_FORCE", Enables(&sim.shards_force),
       "positive: spawn exactly the requested shards, bypassing the clamp"},
      {"--fault-profile", nullptr,
       Enum(&faults.profile, {FaultProfile::kOff, FaultProfile::kFrag, FaultProfile::kPressure,
                              FaultProfile::kChurn}),
       "deterministic fault injection (default off, byte-identical to no fault support)"},
      {"--fault-alloc-pct", nullptr, Percent(&faults.alloc_fail_pct),
       "override the profile's large-page allocation failure %"},
      {"--fault-migrate-pct", nullptr, Percent(&faults.migrate_fail_pct),
       "override the profile's 4KB migration failure %"},
      {"--fault-large-migrate-pct", nullptr, Percent(&faults.large_migrate_fail_pct),
       "override the profile's 2MB migration failure %"},
      {"--fault-pressure-pct", nullptr, Percent(&faults.pressure_pct),
       "override the profile's node-pressure entry %"},
      {"--resume", nullptr, Presence(&options->resume),
       "continue a crashed --out-dir grid from its manifest, byte-identically"},
      {"--cell-deadline-ms", nullptr, Int(&options->cell_deadline_ms, 0, LLONG_MAX),
       "watchdog soft deadline per grid cell (default 0: off)"},
      {"--cell-retries", nullptr, Int(&options->cell_retries, 0, INT_MAX),
       "retry budget for failed or overrun cells (default 1)"},
  };
}

Options ParseToolArgs(int argc, char** argv, const ToolInfo& info,
                      const std::vector<Setting>& extras) {
  try {
    return ParseArgs(argc, argv, info, extras);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s: %s\n", info.name, error.what());
    std::exit(2);
  }
}

std::optional<BenchmarkId> ParseWorkloadName(const std::string& name) {
  for (BenchmarkId id : FullSuite()) {
    if (name == NameOf(id)) {
      return id;
    }
  }
  if (name == "streamcluster" || name == NameOf(BenchmarkId::kStreamcluster)) {
    return BenchmarkId::kStreamcluster;
  }
  return std::nullopt;
}

std::string KnownWorkloadNames() {
  std::string names;
  auto add = [&names](std::string_view name) {
    if (!names.empty()) {
      names += " ";
    }
    names += name;
  };
  for (BenchmarkId id : FullSuite()) {
    add(NameOf(id));
  }
  add(NameOf(BenchmarkId::kStreamcluster));
  return names;
}

std::optional<PolicyKind> ParsePolicyName(const std::string& name) {
  if (name == "linux" || name == "linux-4k") {
    return PolicyKind::kLinux4K;
  }
  if (name == "thp") {
    return PolicyKind::kThp;
  }
  if (name == "carrefour-2m" || name == "carrefour") {
    return PolicyKind::kCarrefour2M;
  }
  if (name == "reactive") {
    return PolicyKind::kReactiveOnly;
  }
  if (name == "conservative") {
    return PolicyKind::kConservativeOnly;
  }
  if (name == "carrefour-lp" || name == "lp") {
    return PolicyKind::kCarrefourLp;
  }
  return std::nullopt;
}

std::optional<Topology> ParseMachineName(const std::string& name) {
  if (name == "A" || name == "machineA") {
    return Topology::MachineA();
  }
  if (name == "B" || name == "machineB") {
    return Topology::MachineB();
  }
  if (name == "epyc8") {
    return Topology::Epyc8();
  }
  if (name == "snc16") {
    return Topology::Snc16();
  }
  if (name == "cxl") {
    return Topology::Cxl();
  }
  return std::nullopt;
}

Setting WorkloadFlag(BenchmarkId* out, std::string* trace_file) {
  const std::string names = KnownWorkloadNames();
  return {"--workload",
          nullptr,
          {trace_file != nullptr ? "NAME|trace:FILE" : "NAME",
           [out, trace_file, names](const std::string& setting, const char* text) {
             const std::string name = text;
             if (trace_file != nullptr && name.rfind("trace:", 0) == 0 && name.size() > 6) {
               *trace_file = name.substr(6);
               return;
             }
             const auto parsed = ParseWorkloadName(name);
             if (!parsed) {
               throw std::invalid_argument(
                   setting + ": unknown workload '" + name + "'; valid names: " + names +
                   (trace_file != nullptr ? ", or trace:FILE (replay a recorded trace)" : ""));
             }
             *out = *parsed;
           }},
          "workload (default " + std::string(NameOf(*out)) + ")"};
}

Setting MachineFlag(Topology* out) {
  return NameFlag("--machine", out, ParseMachineName, "A|B|epyc8|snc16|cxl",
                  "machine preset (default " + out->name() + ")");
}

Setting PolicyFlag(PolicyKind* out) {
  return NameFlag("--policy", out, ParsePolicyName,
                  "linux-4k|thp|carrefour-2m|reactive|conservative|carrefour-lp",
                  "policy (default " + std::string(NameOf(*out)) + ")");
}

}  // namespace numalp::report
