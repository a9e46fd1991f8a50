#include "src/report/options.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

extern char** environ;

namespace numalp::report {

namespace {

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

// A name parser's result, or a message naming the setting and `names`.
template <typename T, typename Parse>
Setting NameFlag(const char* flag, T* out, Parse parse, const char* names, std::string help) {
  return {flag,
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

void PrintUsage(std::FILE* out, const std::string& head, const std::vector<Setting>& settings) {
  std::fputs(head.c_str(), out);
  const auto line = [out](std::string left, const std::string& help) {
    if (left.size() > 24) {
      left += "\n" + std::string(26, ' ');
    }
    std::fprintf(out, "  %-24s %s\n", left.c_str(), help.c_str());
  };
  for (const Setting& setting : settings) {
    const std::string& placeholder = setting.value.placeholder;
    line(placeholder.empty() ? setting.flag : std::string(setting.flag) + " " + placeholder,
         setting.help);
  }
  line("--help", "this message");
}

// The environment sets nothing, so a NUMALP_* variable is a leftover knob or
// a typo that would be silently ignored; it is refused instead, naming the
// flag that replaced it when there is one.
void RejectNumalpEnv(const char* tool) {
  static constexpr std::pair<std::string_view, const char*> kReplaced[] = {
      {"NUMALP_JOBS", "--jobs"},
      {"NUMALP_MAX_EPOCHS", "--epochs"},
      {"NUMALP_ACCESSES_PER_EPOCH", "--accesses"},
      {"NUMALP_SHARDS", "--shards"},
      {"NUMALP_SHARDS_FORCE", "--shards"},
  };
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view variable(*entry);
    if (variable.rfind("NUMALP_", 0) != 0) {
      continue;
    }
    const std::string name(variable.substr(0, variable.find('=')));
    const auto replaced = std::find_if(std::begin(kReplaced), std::end(kReplaced),
                                       [&](const auto& knob) { return knob.first == name; });
    const std::string hint = replaced != std::end(kReplaced)
                                 ? std::string("use ") + replaced->second
                                 : "settings are flags (see --help)";
    std::fprintf(stderr, "%s: %s: the environment sets nothing; %s\n", tool, name.c_str(),
                 hint.c_str());
    std::exit(2);
  }
}

// Applies argv to `settings`; malformed values throw std::invalid_argument.
// An unknown flag or a missing value is named, prefixed "tool: ", above the
// usage.
void ApplyArgv(int argc, char** argv, const char* tool, const std::string& head,
               const std::vector<Setting>& settings, std::vector<std::string>* positional) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout, head, settings);
      std::exit(0);
    }
    if (positional != nullptr && (arg.empty() || arg[0] != '-')) {
      positional->push_back(arg);
      continue;
    }
    const auto row = std::find_if(settings.begin(), settings.end(),
                                  [&](const Setting& setting) { return arg == setting.flag; });
    const bool takes_value = row != settings.end() && !row->value.placeholder.empty();
    if (row == settings.end() || (takes_value && i + 1 >= argc)) {
      std::fprintf(stderr, row == settings.end() ? "%s: unknown flag '%s'\n"
                                                 : "%s: %s: missing value\n",
                   tool, arg.c_str());
      PrintUsage(stderr, head, settings);
      std::exit(2);
    }
    row->value.store(arg, takes_value ? argv[++i] : nullptr);
  }
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

SettingValue OneOf(std::string* field, std::vector<std::string> choices) {
  return Enum(field, std::move(choices));
}

std::vector<Setting> UniformSettings(Options* options) {
  SimConfig& sim = options->sim;
  return {
      {"--format", Enum<std::string>(&options->format, {"md", "csv", "jsonl"}),
       "stdout format (default md, an aligned table)"},
      {"--out-dir", Text(&options->out_dir, "DIR"),
       "also write the rows to DIR/<bench id>.{csv,jsonl}"},
      {"--jobs", Int(&options->jobs, 1, INT_MAX),
       "grid worker threads (default: the host's cores)"},
      {"--seed", Int(&sim.seed, 1, LLONG_MAX),
       "base seed of the sweep's seed axis (default 42)"},
      {"--epochs", Int(&sim.max_epochs, 1, INT_MAX),
       "cap epochs per run (default 600)"},
      {"--accesses", Int(&sim.accesses_per_thread_per_epoch, 1, LLONG_MAX),
       "accesses per thread per epoch (default 4096)"},
      {"--shards", Int(&sim.shards, 1, INT_MAX),
       "intra-cell shard threads, at most the machine's cores; never changes results"},
      {"--fault-profile",
       Enum(&sim.faults.profile, {FaultProfile::kOff, FaultProfile::kFrag,
                                  FaultProfile::kPressure, FaultProfile::kChurn}),
       "deterministic fault injection (default off, byte-identical to no fault support)"},
      {"--resume", Presence(&options->resume),
       "continue a crashed --out-dir grid from its manifest, byte-identically"},
  };
}

Options ParseToolArgs(int argc, char** argv, const ToolInfo& info,
                      const std::vector<Setting>& extras, const char* launcher) {
  RejectNumalpEnv(info.name);
  Options options;
  std::vector<Setting> settings = UniformSettings(&options);
  settings.insert(settings.end(), extras.begin(), extras.end());
  const std::string head = std::string(info.name) + " — " + info.description +
                           " (bench id: " + info.bench_id + ")\n\nusage: " +
                           (launcher != nullptr ? std::string(launcher) + " " : "") +
                           info.name + " [options]\n";
  ParseFlags(argc, argv, info.name, head, settings);
  return options;
}

void ParseFlags(int argc, char** argv, const char* tool, const std::string& head,
                const std::vector<Setting>& settings, std::vector<std::string>* positional) {
  try {
    ApplyArgv(argc, argv, tool, head, settings, positional);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s: %s\n", tool, error.what());
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
