#include "src/common/stats.h"

#include <cmath>

namespace numalp {

double ImbalancePct(std::span<const std::uint64_t> values) {
  // Welford's online mean and variance. Rows carry the result, so this
  // order of floating-point operations is part of their bytes.
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  for (std::uint64_t v : values) {
    const double x = static_cast<double>(v);
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }
  if (count == 0 || mean == 0.0) {
    return 0.0;
  }
  return 100.0 * std::sqrt(m2 / static_cast<double>(count)) / mean;
}

}  // namespace numalp
