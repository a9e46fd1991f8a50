// Test oracle for numalp::Workload's access generation: the seed's
// one-call-per-access generator, kept verbatim. Workload::FillBatch draws
// the barrier spin in one UniformRun sweep and the steady state in
// per-region runs (SteadyRun); this oracle drives the same Workload tables
// one access at a time, exactly as the seed did. BatchedGenerationTest
// (tests/perf_structures_test.cc) runs two identically built workloads —
// one through FillBatch, one through this class — and holds the streams
// byte-identical.
#ifndef NUMALP_TESTS_ORACLES_PER_CALL_GENERATOR_H_
#define NUMALP_TESTS_ORACLES_PER_CALL_GENERATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/workloads/workload.h"

namespace numalp {

// A friend of Workload: reads its region and thread tables and advances its
// per-thread cursors and RNG streams in place.
class PerCallGenerator {
 public:
  explicit PerCallGenerator(Workload& workload) : w_(workload) {}

  // Workload::FillBatch with the per-call spin loop and steady generator.
  void FillBatch(int thread, std::size_t n, std::vector<WorkloadAccess>& out) {
    out.clear();
    Workload::ThreadRt& state = w_.threads_[static_cast<std::size_t>(thread)];
    std::size_t produced = 0;
    while (state.setup_cursor < state.setup.size() && produced < n) {
      const auto [region_index, page] = state.setup[state.setup_cursor++];
      WorkloadAccess access;
      access.va = w_.PageVa(w_.regions_[region_index], page, state.rng);
      access.region = static_cast<std::uint8_t>(region_index);
      access.write = true;
      out.push_back(access);
      ++produced;
    }
    if (w_.barrier_this_epoch_) {
      const Addr spin_page = w_.scratch_base_ + static_cast<std::uint64_t>(thread) * kBytes4K;
      while (produced < n) {
        WorkloadAccess access;
        access.va = spin_page + state.rng.Uniform(kBytes4K / 64) * 64;
        access.region = static_cast<std::uint8_t>(w_.scratch_region_);
        access.write = false;
        out.push_back(access);
        ++produced;
      }
      return;
    }
    if (produced < n) {
      const std::size_t steady = n - produced;
      for (std::size_t i = 0; i < steady; ++i) {
        out.push_back(SteadyAccess(thread));
      }
      state.steady_issued += steady;
    }
  }

 private:
  WorkloadAccess SteadyAccess(int thread) {
    Workload::ThreadRt& state = w_.threads_[static_cast<std::size_t>(thread)];
    Rng& rng = state.rng;
    // Region by access share.
    const double u = rng.NextDouble();
    std::size_t region_index = 0;
    while (region_index + 1 < w_.share_cdf_.size() && w_.share_cdf_[region_index] <= u) {
      ++region_index;
    }
    const Workload::RegionRt& region = w_.regions_[region_index];
    const RegionSpec& rspec = *region.spec;

    std::uint64_t page = 0;
    if (rspec.incremental) {
      std::uint64_t& cursor = state.alloc_cursor[region_index];
      const std::uint64_t slice_lo = static_cast<std::uint64_t>(thread) * region.slice_pages;
      const bool can_grow = cursor < region.slice_pages;
      const bool fresh = can_grow && (cursor == 0 || rng.Bernoulli(rspec.fresh_fraction));
      if (fresh) {
        page = slice_lo + cursor;
        ++cursor;
      } else {
        page = slice_lo + rng.Uniform(std::max<std::uint64_t>(1, cursor));
      }
    } else {
      switch (rspec.pattern) {
        case PatternKind::kUniform:
          page = rng.Uniform(region.pages);
          break;
        case PatternKind::kZipf: {
          const std::uint64_t rank = region.zipf->Sample(rng);
          if (region.zipf_stride != 0) {
            const std::uint64_t blocks = static_cast<std::uint64_t>(rspec.zipf_block_shuffle);
            page = (rank % blocks) * region.zipf_stride + rank / blocks;
            if (page >= region.pages) {
              page = rank;  // tail ranks past the blocked area map identically
            }
          } else {
            // Identity rank -> page: hot pages cluster at the region start,
            // the way early-allocated hot objects cluster in heaps.
            page = rank;
          }
          break;
        }
        case PatternKind::kHotChunks: {
          const std::uint64_t chunk = rng.Uniform(static_cast<std::uint64_t>(region.chunks));
          page = chunk * region.stride_pages + rng.Uniform(region.chunk_pages);
          break;
        }
        case PatternKind::kPartitioned: {
          std::uint64_t slice = static_cast<std::uint64_t>(thread);
          if (!rng.Bernoulli(rspec.local_fraction)) {
            // Boundary sharing with a neighbouring thread's slice.
            const int neighbor =
                rng.Bernoulli(0.5) ? thread + 1 : thread + w_.num_threads_ - 1;
            slice = static_cast<std::uint64_t>(neighbor % w_.num_threads_);
          }
          page = slice * region.slice_pages +
                 rng.Uniform(std::max<std::uint64_t>(1, region.slice_pages));
          break;
        }
        case PatternKind::kSequential: {
          std::uint64_t& cursor = state.seq_cursor[region_index];
          const std::uint64_t slice_lo =
              static_cast<std::uint64_t>(thread) * region.slice_pages;
          page = slice_lo + cursor;
          // A stream touches ~16 cache lines per page before moving on, so
          // the page advances once per ~16 modelled accesses (TLB-realistic).
          if (rng.Bernoulli(1.0 / 16)) {
            cursor = (cursor + 1) % std::max<std::uint64_t>(1, region.slice_pages);
          }
          break;
        }
      }
    }
    WorkloadAccess access;
    access.va = w_.PageVa(region, page, rng);
    access.region = static_cast<std::uint8_t>(region_index);
    access.write = rng.Bernoulli(w_.spec_.write_fraction);
    return access;
  }

  Workload& w_;
};

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLES_PER_CALL_GENERATOR_H_
