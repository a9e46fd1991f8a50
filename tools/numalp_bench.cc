// numalp_bench — runs one row of the claims table (src/report/claims.h):
//
//   numalp_bench NAME [options]     (numalp_bench --help lists the names)
//
// NAME's sweep runs on one ExperimentRunner pool (--jobs; results
// identical at any value, DESIGN.md Section 5) and every cell is
// emitted as a typed ResultRow through the configured sinks (--format on
// stdout, --out-dir files; DESIGN.md Section 6). The options are the
// uniform settings plus the row's own; REPRODUCING.md maps each NAME to the
// figure or table it reproduces. A sweep with a failed cell exits 1 after
// writing every row, naming each failed cell on stderr.
#include <cstdio>
#include <cstring>

#include "src/report/claims.h"

namespace {

void PrintNames(std::FILE* out) {
  std::fprintf(out, "usage: numalp_bench NAME [options]   (NAME --help: the options)\n"
                   "NAME is one of:\n");
  for (const numalp::report::Claim& claim : numalp::report::Claims()) {
    std::fprintf(out, "  %-26s %s\n", claim.info.name, claim.section);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0)) {
    PrintNames(stdout);
    return 0;
  }
  const numalp::report::Claim* claim =
      argc >= 2 ? numalp::report::FindClaim(argv[1]) : nullptr;
  if (claim == nullptr) {
    if (argc >= 2) {
      std::fprintf(stderr, "numalp_bench: unknown bench '%s'\n", argv[1]);
    }
    PrintNames(stderr);
    return 2;
  }
  numalp::report::BenchInputs inputs;
  const std::vector<numalp::report::Setting> extras =
      claim->settings != nullptr ? claim->settings(&inputs)
                                 : std::vector<numalp::report::Setting>{};
  // NAME takes argv[0]'s place, so the parser sees the bench's own argv.
  inputs.options =
      numalp::report::ParseToolArgs(argc - 1, argv + 1, claim->info, extras, "numalp_bench");
  const numalp::report::Sweep sweep = claim->sweep(inputs);
  numalp::report::GridReport report(inputs.options, claim->info);
  report.Run(sweep);
  return report.Close();
}
