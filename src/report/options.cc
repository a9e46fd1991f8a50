#include "src/report/options.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "src/report/sink.h"

namespace numalp::report {

namespace {

void PrintUsage(std::FILE* out, const ToolInfo& info) {
  std::fprintf(out, "%s — %s\n\n", info.name, info.description);
  std::fprintf(out,
               "usage: %s [options]\n"
               "  --format md|csv|jsonl  stdout format (default: md, an aligned table)\n"
               "  --out-dir DIR          also write DIR/%s.csv and DIR/%s.jsonl\n"
               "  --jobs N               worker threads (default: NUMALP_JOBS, then cores)\n"
               "  --seed N               base seed of the sweep's seed axis\n"
               "  --epochs N             cap epochs per run (NUMALP_MAX_EPOCHS)\n"
               "  --accesses N           accesses per thread per epoch"
               " (NUMALP_ACCESSES_PER_EPOCH)\n"
               "  --shards N             intra-cell shard threads per simulation"
               " (NUMALP_SHARDS);\n"
               "                         clamped to the host budget unless forced,"
               " never changes results\n"
               "  --fault-profile P      deterministic fault injection: off |"
               " frag | pressure |\n"
               "                         churn (NUMALP_FAULT_PROFILE; default"
               " off — byte-identical\n"
               "                         to a build without fault support)\n"
               "  --fault-alloc-pct X    override the profile's large-page"
               " allocation failure %%\n"
               "                         (NUMALP_FAULT_ALLOC_PCT)\n"
               "  --fault-migrate-pct X  override the profile's 4KB migration"
               " failure %% (NUMALP_FAULT_MIGRATE_PCT)\n"
               "  --fault-large-migrate-pct X  override the profile's 2MB"
               " migration failure %%\n"
               "                         (NUMALP_FAULT_LARGE_MIGRATE_PCT; needs"
               " target-node contiguity,\n"
               "                         so profiles default it well above the"
               " 4KB rate)\n"
               "  --fault-pressure-pct X override the profile's node-pressure"
               " entry %% (NUMALP_FAULT_PRESSURE_PCT)\n"
               "  --resume               continue a crashed --out-dir grid"
               " from its manifest;\n"
               "                         completed cells are skipped and the"
               " final files are\n"
               "                         byte-identical to an uninterrupted"
               " run\n"
               "  --cell-deadline-ms N   watchdog soft deadline per grid cell"
               " (NUMALP_CELL_DEADLINE_MS;\n"
               "                         0 disables, the default)\n"
               "  --cell-retries N       retry budget for failed or overrun"
               " cells\n"
               "                         (NUMALP_CELL_RETRIES; default 1)\n"
               "  --help                 this message\n",
               info.name, info.bench_id, info.bench_id);
  if (info.extra_usage != nullptr && info.extra_usage[0] != '\0') {
    std::fprintf(out, "%s", info.extra_usage);
  }
}

// ParseToolArgs without the handling of malformed settings, which throw
// std::invalid_argument.
Options ParseArgs(int argc, char** argv, const ToolInfo& info,
                  const std::vector<ExtraFlag>& extras) {
  Options options;
  options.sim = WithEnvOverrides(SimConfig{});

  auto fail = [&]() {
    PrintUsage(stderr, info);
    std::exit(2);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        fail();
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout, info);
      std::exit(0);
    } else if (arg == "--format") {
      options.format = next();
      if (!IsKnownFormat(options.format)) {
        fail();
      }
    } else if (arg == "--out-dir") {
      options.out_dir = next();
    } else if (arg == "--jobs") {
      options.jobs = static_cast<int>(ParseInt(arg, next(), 1, INT_MAX));
    } else if (arg == "--seed") {
      options.sim.seed = static_cast<std::uint64_t>(ParseInt(arg, next(), 1, LLONG_MAX));
    } else if (arg == "--epochs") {
      options.sim.max_epochs = static_cast<int>(ParseInt(arg, next(), 1, INT_MAX));
    } else if (arg == "--accesses") {
      options.sim.accesses_per_thread_per_epoch =
          static_cast<std::uint64_t>(ParseInt(arg, next(), 1, LLONG_MAX));
    } else if (arg == "--shards") {
      options.sim.shards = static_cast<int>(ParseInt(arg, next(), 1, INT_MAX));
    } else if (arg == "--fault-profile") {
      const auto profile = ParseFaultProfile(next());
      if (!profile) {
        fail();
      }
      options.sim.faults.profile = *profile;
    } else if (arg == "--fault-alloc-pct") {
      options.sim.faults.alloc_fail_pct = ParsePercent(arg, next());
    } else if (arg == "--fault-migrate-pct") {
      options.sim.faults.migrate_fail_pct = ParsePercent(arg, next());
    } else if (arg == "--fault-large-migrate-pct") {
      options.sim.faults.large_migrate_fail_pct = ParsePercent(arg, next());
    } else if (arg == "--fault-pressure-pct") {
      options.sim.faults.pressure_pct = ParsePercent(arg, next());
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--cell-deadline-ms") {
      options.cell_deadline_ms = ParseInt(arg, next(), 0, LLONG_MAX);
    } else if (arg == "--cell-retries") {
      options.cell_retries = static_cast<int>(ParseInt(arg, next(), 0, INT_MAX));
    } else {
      bool handled = false;
      for (const ExtraFlag& extra : extras) {
        if (arg == extra.flag) {
          const char* value = extra.takes_value ? next() : nullptr;
          if (!extra.handle(value)) {
            fail();
          }
          handled = true;
          break;
        }
      }
      if (!handled) {
        fail();
      }
    }
  }
  return options;
}

}  // namespace

Options ParseToolArgs(int argc, char** argv, const ToolInfo& info,
                      const std::vector<ExtraFlag>& extras) {
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

namespace {

template <typename T, typename Parse>
ExtraFlag AssigningFlag(const char* flag, T* out, Parse parse) {
  return {flag, true, [out, parse](const char* value) {
            const auto parsed = parse(value);
            if (parsed) {
              *out = *parsed;
            }
            return parsed.has_value();
          }};
}

}  // namespace

ExtraFlag WorkloadFlag(BenchmarkId* out, std::string* trace_file) {
  return {"--workload", true, [out, trace_file](const char* value) {
            const std::string name = value;
            if (name.rfind("trace:", 0) == 0) {
              if (trace_file == nullptr) {
                std::fprintf(stderr, "%s: this tool does not support trace replay\n",
                             value);
                return false;
              }
              *trace_file = name.substr(6);
              return !trace_file->empty();
            }
            const auto parsed = ParseWorkloadName(name);
            if (!parsed) {
              std::fprintf(stderr,
                           "unknown workload '%s'; valid names: %s%s\n", value,
                           KnownWorkloadNames().c_str(),
                           trace_file != nullptr
                               ? ", or trace:FILE (replay a recorded trace)"
                               : "");
              return false;
            }
            *out = *parsed;
            return true;
          }};
}

ExtraFlag MachineFlag(Topology* out) {
  return AssigningFlag("--machine", out, ParseMachineName);
}

ExtraFlag PolicyFlag(PolicyKind* out) {
  return AssigningFlag("--policy", out, ParsePolicyName);
}

}  // namespace numalp::report
