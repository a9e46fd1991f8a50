// The traffic-imbalance statistic the metrics module and run results share.
#ifndef NUMALP_SRC_COMMON_STATS_H_
#define NUMALP_SRC_COMMON_STATS_H_

#include <cstdint>
#include <span>

namespace numalp {

// Population standard deviation of `values` expressed as a percentage of
// their mean — the paper's definition of memory-controller traffic imbalance
// (Section 2.1). Returns 0 for empty input or zero mean.
double ImbalancePct(std::span<const std::uint64_t> values);

}  // namespace numalp

#endif  // NUMALP_SRC_COMMON_STATS_H_
