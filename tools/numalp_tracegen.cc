// numalp_tracegen — synthesizes phase-structured binary traces from the
// embedded application profiles (src/trace/tracegen.cc):
//
//   numalp_tracegen --profile ckpt-churn --out ckpt.trace [options]
//
// (the options are the settings rows below; --help prints them). The
// output replays with `numalp_run --workload trace:FILE` (or any grid
// driver that accepts a trace workload). Profiles model the compute /
// shuffle / checkpoint phase mixes of BERT, ResNet-50, LAMMPS and NAMD;
// "ckpt-churn" adds the checkpoint-storm mmap churn whose retained log pages
// fragment the buddy allocator on replay (DESIGN.md Section 14).
#include <climits>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/trace/tracegen.h"

int main(int argc, char** argv) {
  numalp::trace::TracegenOptions options;
  options.topo = numalp::Topology::MachineA();
  std::string out_path;
  bool list_profiles = false;

  const std::string head =
      "numalp_tracegen — synthesize a phase-structured access trace\n\n"
      "usage: numalp_tracegen --profile NAME --out FILE [options]\n";
  const std::vector<numalp::report::Setting> settings = {
      {"--profile", nullptr, numalp::report::Text(&options.profile, "NAME"),
       "embedded phase profile (see --list-profiles)"},
      {"--out", nullptr, numalp::report::Text(&out_path, "FILE"), "output trace path"},
      numalp::report::MachineFlag(&options.topo),
      {"--seed", nullptr, numalp::report::Int(&options.seed, 0, LLONG_MAX),
       "generator seed (default 42)"},
      {"--epochs", nullptr, numalp::report::Int(&options.epochs, 0, INT_MAX),
       "steady epochs; 0 = profile default, shorter runs compress the phase schedule"},
      {"--accesses", nullptr, numalp::report::Int(&options.accesses_per_thread, 4, UINT32_MAX),
       "accesses per thread per epoch (default 4096)"},
      {"--list-profiles", nullptr, numalp::report::Presence(&list_profiles),
       "print the embedded profile names and exit"},
  };
  // Malformed values exit 2 naming the flag, like every other tool's.
  numalp::report::ParseFlags(argc, argv, "numalp_tracegen", head, settings);
  if (list_profiles) {
    for (const std::string& name : numalp::trace::TracegenProfiles()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (options.profile.empty() || out_path.empty()) {
    std::fprintf(stderr, "numalp_tracegen: --profile and --out are required (see --help)\n");
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
