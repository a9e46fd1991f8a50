// numalp_tracegen — synthesizes phase-structured binary traces from the
// embedded application profiles (src/trace/tracegen.cc):
//
//   numalp_tracegen --profile ckpt-churn --out ckpt.trace
//                   [--machine A|B|epyc8|snc16|cxl] [--seed N]
//                   [--epochs N] [--accesses N] [--list-profiles]
//
// The output replays with `numalp_run --workload trace:FILE` (or any grid
// driver that accepts a trace workload). Profiles model the compute /
// shuffle / checkpoint phase mixes of BERT, ResNet-50, LAMMPS and NAMD;
// "ckpt-churn" adds the checkpoint-storm mmap churn whose retained log pages
// fragment the buddy allocator on replay (DESIGN.md Section 14).
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "src/core/config.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/trace/tracegen.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "numalp_tracegen — synthesize a phase-structured access trace\n\n"
               "usage: numalp_tracegen --profile NAME --out FILE [options]\n"
               "  --profile NAME   embedded phase profile (see --list-profiles)\n"
               "  --out FILE       output trace path\n"
               "  --machine M      target preset: A B epyc8 snc16 cxl (default A)\n"
               "  --seed N         generator seed, >= 0 (default 42)\n"
               "  --epochs N       steady epochs, >= 0; 0 = profile default, shorter\n"
               "                   runs compress the phase schedule proportionally\n"
               "  --accesses N     accesses per thread per epoch, in [4, 4294967295]\n"
               "                   (default 4096)\n"
               "  --list-profiles  print the embedded profile names and exit\n"
               "  --help           this message\n");
}

}  // namespace

int main(int argc, char** argv) {
  numalp::trace::TracegenOptions options;
  options.topo = numalp::Topology::MachineA();
  std::string out_path;

  // Malformed integers exit 2 naming the flag, like every other tool's.
  const auto integer = [](const std::string& flag, const char* text, long long min,
                          long long max) {
    try {
      return numalp::ParseInt(flag, text, min, max);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "numalp_tracegen: %s\n", e.what());
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        PrintUsage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--list-profiles") {
      for (const std::string& name : numalp::trace::TracegenProfiles()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--profile") {
      options.profile = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--machine") {
      const auto topo = numalp::report::ParseMachineName(next());
      if (!topo) {
        PrintUsage(stderr);
        return 2;
      }
      options.topo = *topo;
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(integer(arg, next(), 0, LLONG_MAX));
    } else if (arg == "--epochs") {
      options.epochs = static_cast<int>(integer(arg, next(), 0, INT_MAX));
    } else if (arg == "--accesses") {
      options.accesses_per_thread =
          static_cast<std::uint32_t>(integer(arg, next(), 4, UINT32_MAX));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }

  if (options.profile.empty() || out_path.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  try {
    numalp::trace::GenerateTrace(options, out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "numalp_tracegen: %s\n", e.what());
    return 1;
  }
  std::printf("wrote %s (profile %s, machine %s, seed %llu)\n", out_path.c_str(),
              options.profile.c_str(), options.topo.name().c_str(),
              static_cast<unsigned long long>(options.seed));
  return 0;
}
