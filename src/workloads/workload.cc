#include "src/workloads/workload.h"

#include <algorithm>
#include <cassert>

#include "src/common/log.h"

namespace numalp {

double WorkloadSpec::TotalShare() const {
  double total = 0.0;
  for (const auto& region : regions) {
    total += region.access_share;
  }
  return total;
}

Workload::Workload(const WorkloadSpec& spec, AddressSpace& address_space, int num_threads,
                   std::uint64_t seed)
    : spec_(spec), num_threads_(num_threads) {
  assert(num_threads_ > 0);
  // Map every region plus an implicit per-thread scratch page (threads spin
  // there while waiting for the setup barrier).
  regions_.reserve(spec_.regions.size() + 1);
  for (const auto& region_spec : spec_.regions) {
    RegionRt rt;
    rt.spec = &spec_.regions[static_cast<std::size_t>(&region_spec - spec_.regions.data())];
    VmaOptions opts;
    opts.name = region_spec.name;
    opts.thp_eligible = region_spec.thp_eligible;
    opts.explicit_page = region_spec.explicit_page;
    rt.base = address_space.MmapAnon(region_spec.bytes, opts);
    rt.vma_bytes = AlignUp(region_spec.bytes, kBytes4K);
    rt.pages = region_spec.bytes / kBytes4K;
    rt.slice_pages = rt.pages / static_cast<std::uint64_t>(num_threads_);
    if (region_spec.pattern == PatternKind::kZipf) {
      rt.zipf.emplace(rt.pages, region_spec.zipf_s);
      const int blocks = region_spec.zipf_block_shuffle;
      if (blocks > 1 && rt.pages >= static_cast<std::uint64_t>(blocks)) {
        rt.zipf_stride = rt.pages / static_cast<std::uint64_t>(blocks);
      }
    }
    if (region_spec.pattern == PatternKind::kHotChunks) {
      rt.chunks = region_spec.num_chunks > 0 ? region_spec.num_chunks : num_threads_;
      rt.chunk_pages = std::max<std::uint64_t>(1, region_spec.chunk_bytes / kBytes4K);
      rt.stride_pages = std::max<std::uint64_t>(rt.chunk_pages,
                                                region_spec.chunk_stride / kBytes4K);
      assert(static_cast<std::uint64_t>(rt.chunks) * rt.stride_pages <= rt.pages);
    }
    regions_.push_back(std::move(rt));
  }
  // Scratch region: one private 4KB page per thread.
  {
    RegionRt rt;
    static const RegionSpec kScratchSpec = [] {
      RegionSpec s;
      s.name = "scratch";
      s.dram_intensity = 0.01;
      s.access_share = 0.0;
      return s;
    }();
    rt.spec = &kScratchSpec;
    VmaOptions opts;
    opts.name = "scratch";
    opts.thp_eligible = false;
    rt.base = address_space.MmapAnon(static_cast<std::uint64_t>(num_threads_) * kBytes4K, opts);
    rt.vma_bytes = static_cast<std::uint64_t>(num_threads_) * kBytes4K;
    rt.pages = static_cast<std::uint64_t>(num_threads_);
    rt.slice_pages = 1;
    scratch_region_ = static_cast<int>(regions_.size());
    scratch_base_ = rt.base;
    regions_.push_back(std::move(rt));
  }

  // Per-thread state + setup queues.
  Rng seeder(seed);
  threads_.resize(static_cast<std::size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    ThreadRt& thread = threads_[static_cast<std::size_t>(t)];
    thread.rng = seeder.Fork();
    thread.seq_cursor.assign(regions_.size(), 0);
    thread.alloc_cursor.assign(regions_.size(), 0);
    // Desynchronize streaming phases: threads of a real program do not sweep
    // their slices in lockstep, so each sequential cursor starts at a random
    // position within its slice.
    for (std::size_t r = 0; r < regions_.size(); ++r) {
      if (regions_[r].spec->pattern == PatternKind::kSequential &&
          regions_[r].slice_pages > 0) {
        thread.seq_cursor[r] = thread.rng.Uniform(regions_[r].slice_pages);
      }
    }
    // Scratch page first so the spin target exists immediately.
    thread.setup.emplace_back(static_cast<std::uint32_t>(scratch_region_),
                              static_cast<std::uint64_t>(t));
  }
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RegionRt& region = regions_[r];
    if (region.spec->incremental || static_cast<int>(r) == scratch_region_) {
      continue;
    }
    switch (region.spec->setup_owner) {
      case SetupOwner::kRoundRobinPage:
        for (std::uint64_t p = 0; p < region.pages; ++p) {
          threads_[static_cast<std::size_t>(p % static_cast<std::uint64_t>(num_threads_))]
              .setup.emplace_back(static_cast<std::uint32_t>(r), p);
        }
        break;
      case SetupOwner::kPartitionOwner:
        for (int t = 0; t < num_threads_; ++t) {
          const std::uint64_t lo = static_cast<std::uint64_t>(t) * region.slice_pages;
          for (std::uint64_t p = lo; p < lo + region.slice_pages; ++p) {
            threads_[static_cast<std::size_t>(t)].setup.emplace_back(
                static_cast<std::uint32_t>(r), p);
          }
        }
        break;
      case SetupOwner::kChunkOwner:
        for (int c = 0; c < region.chunks; ++c) {
          const int owner = c % num_threads_;
          const std::uint64_t lo = static_cast<std::uint64_t>(c) * region.stride_pages;
          for (std::uint64_t p = lo; p < lo + region.chunk_pages; ++p) {
            threads_[static_cast<std::size_t>(owner)].setup.emplace_back(
                static_cast<std::uint32_t>(r), p);
          }
        }
        break;
      case SetupOwner::kThreadZero:
        for (std::uint64_t p = 0; p < region.pages; ++p) {
          threads_[0].setup.emplace_back(static_cast<std::uint32_t>(r), p);
        }
        break;
    }
  }
  // Randomly rotate each thread's setup queue (keeping the scratch page
  // first): on real machines the winner of a first-touch race for a shared
  // 2MB window is effectively random among the threads whose data it spans;
  // without this, deterministic thread ordering would always hand shared
  // windows to the lowest thread id.
  for (auto& thread : threads_) {
    auto& queue = thread.setup;
    if (queue.size() > 2) {
      const std::size_t offset = 1 + thread.rng.Uniform(queue.size() - 1);
      std::rotate(queue.begin() + 1, queue.begin() + static_cast<std::ptrdiff_t>(offset),
                  queue.end());
    }
  }

  // Steady-state region selection CDF.
  const double total_share = spec_.TotalShare();
  double accum = 0.0;
  share_cdf_.assign(regions_.size(), 1.0);
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    accum += regions_[r].spec->access_share / (total_share > 0 ? total_share : 1.0);
    share_cdf_[r] = accum;
  }
  share_cdf_.back() = 1.0;
}

Addr Workload::PageVa(const RegionRt& region, std::uint64_t page, Rng& rng) const {
  // Random cache-line-aligned offset inside the 4KB page.
  return region.base + page * kBytes4K + rng.Uniform(kBytes4K / 64) * 64;
}

void Workload::BeginEpoch() { barrier_this_epoch_ = !SetupDone(); }

bool Workload::SetupDone() const {
  for (const auto& thread : threads_) {
    if (thread.setup_cursor < thread.setup.size()) {
      return false;
    }
  }
  return true;
}

void Workload::FillBatch(int thread, std::size_t n, std::vector<WorkloadAccess>& out) {
  out.clear();
  out.reserve(n);
  ThreadRt& state = threads_[static_cast<std::size_t>(thread)];
  std::size_t produced = 0;
  // Setup phase: drain this thread's first-touch queue.
  while (state.setup_cursor < state.setup.size() && produced < n) {
    const auto [region_index, page] = state.setup[state.setup_cursor++];
    const RegionRt& region = regions_[region_index];
    WorkloadAccess access;
    access.va = PageVa(region, page, state.rng);
    access.region = static_cast<std::uint8_t>(region_index);
    access.write = true;  // initialization writes
    out.push_back(access);
    ++produced;
  }
  if (state.setup_cursor != 0 && state.setup_cursor == state.setup.size()) {
    // Drained: the queue is never read again, so free it rather than keep
    // it for the rest of the run (an empty queue reads as drained).
    decltype(state.setup)().swap(state.setup);
    state.setup_cursor = 0;
  }
  // Barrier: for the whole epoch in which any thread still initializes,
  // finished threads spin on their scratch page instead of racing ahead and
  // first-touching pages that belong to another thread's init loop.
  const bool barrier = barrier_this_epoch_;
  if (barrier) {
    const Addr spin_page = scratch_base_ + static_cast<std::uint64_t>(thread) * kBytes4K;
    const std::uint8_t region = static_cast<std::uint8_t>(scratch_region_);
    // The spin accesses consume one offset draw each and nothing else: a
    // fixed-length run, drawn through the batch API in one sweep.
    std::uint64_t offsets[64];
    Rng rng = state.rng;
    while (produced < n) {
      const std::size_t run = std::min<std::size_t>(64, n - produced);
      rng.UniformRun(kBytes4K / 64, offsets, run);
      for (std::size_t i = 0; i < run; ++i) {
        out.push_back(WorkloadAccess{spin_page + offsets[i] * 64, region, false});
      }
      produced += run;
    }
    state.rng = rng;
    return;
  }
  if (produced < n) {
    const std::size_t steady = n - produced;
    SteadyRun(thread, steady, out);
    state.steady_issued += steady;
  }
}

void Workload::SteadyRun(int thread, std::size_t count, std::vector<WorkloadAccess>& out) {
  ThreadRt& state = threads_[static_cast<std::size_t>(thread)];
  // The RNG state lives in registers for the whole batch; every variate is
  // drawn in the exact order the per-call generator draws it (region
  // select, pattern draws, intra-page offset, write flag), so the stream is
  // byte-identical.
  Rng rng = state.rng;
  const double* cdf = share_cdf_.data();
  const std::size_t last_region = regions_.size() - 1;
  const double write_fraction = spec_.write_fraction;
  std::size_t remaining = count;

  std::size_t region_index = 0;
  {
    const double u = rng.NextDouble();
    while (region_index < last_region && cdf[region_index] <= u) {
      ++region_index;
    }
  }
  while (remaining > 0) {
    RegionRt& region = regions_[region_index];
    const RegionSpec& rspec = *region.spec;
    const Addr base = region.base;
    const std::uint8_t rid = static_cast<std::uint8_t>(region_index);
    // One run: accesses keep landing in this region until the region draw
    // moves. The pattern dispatch and region tables are paid per run, and
    // the whole draw/emit chain stays in one tight loop.
    const auto emit = [&](std::uint64_t page) {
      WorkloadAccess access;
      access.va = base + page * kBytes4K + rng.Uniform(kBytes4K / 64) * 64;
      access.region = rid;
      access.write = rng.Bernoulli(write_fraction);
      out.push_back(access);
    };
    // Draws the next access's region; true while the run continues.
    const auto advance = [&]() -> bool {
      if (--remaining == 0) {
        return false;
      }
      const double u = rng.NextDouble();
      std::size_t next = 0;
      while (next < last_region && cdf[next] <= u) {
        ++next;
      }
      if (next == region_index) {
        return true;
      }
      region_index = next;
      return false;
    };

    if (rspec.incremental) {
      std::uint64_t& cursor = state.alloc_cursor[region_index];
      const std::uint64_t slice_lo =
          static_cast<std::uint64_t>(thread) * region.slice_pages;
      do {
        const bool can_grow = cursor < region.slice_pages;
        const bool fresh = can_grow && (cursor == 0 || rng.Bernoulli(rspec.fresh_fraction));
        std::uint64_t page;
        if (fresh) {
          page = slice_lo + cursor;
          ++cursor;
        } else {
          page = slice_lo + rng.Uniform(std::max<std::uint64_t>(1, cursor));
        }
        emit(page);
      } while (advance());
      continue;
    }
    switch (rspec.pattern) {
      case PatternKind::kUniform:
        do {
          emit(rng.Uniform(region.pages));
        } while (advance());
        break;
      case PatternKind::kZipf: {
        const ZipfSampler& zipf = *region.zipf;
        const std::uint64_t stride = region.zipf_stride;
        const std::uint64_t blocks =
            static_cast<std::uint64_t>(rspec.zipf_block_shuffle);
        const std::uint64_t pages = region.pages;
        do {
          const std::uint64_t rank = zipf.Sample(rng);
          std::uint64_t page;
          if (stride != 0) {
            page = (rank % blocks) * stride + rank / blocks;
            if (page >= pages) {
              page = rank;  // tail ranks past the blocked area map identically
            }
          } else {
            page = rank;
          }
          emit(page);
        } while (advance());
        break;
      }
      case PatternKind::kHotChunks: {
        const std::uint64_t chunks = static_cast<std::uint64_t>(region.chunks);
        do {
          const std::uint64_t chunk = rng.Uniform(chunks);
          emit(chunk * region.stride_pages + rng.Uniform(region.chunk_pages));
        } while (advance());
        break;
      }
      case PatternKind::kPartitioned: {
        const double local_fraction = rspec.local_fraction;
        const std::uint64_t slice_pages = region.slice_pages;
        const std::uint64_t bound = std::max<std::uint64_t>(1, slice_pages);
        do {
          std::uint64_t slice = static_cast<std::uint64_t>(thread);
          if (!rng.Bernoulli(local_fraction)) {
            const int neighbor =
                rng.Bernoulli(0.5) ? thread + 1 : thread + num_threads_ - 1;
            slice = static_cast<std::uint64_t>(neighbor % num_threads_);
          }
          emit(slice * slice_pages + rng.Uniform(bound));
        } while (advance());
        break;
      }
      case PatternKind::kSequential: {
        std::uint64_t& cursor = state.seq_cursor[region_index];
        const std::uint64_t slice_lo =
            static_cast<std::uint64_t>(thread) * region.slice_pages;
        const std::uint64_t slice_pages = std::max<std::uint64_t>(1, region.slice_pages);
        do {
          const std::uint64_t page = slice_lo + cursor;
          // The cursor-advance draw precedes the offset/write draws, exactly
          // as in the per-call generator.
          if (rng.Bernoulli(1.0 / 16)) {
            cursor = (cursor + 1) % slice_pages;
          }
          emit(page);
        } while (advance());
        break;
      }
    }
  }
  state.rng = rng;
}

bool Workload::Done() const {
  for (const auto& thread : threads_) {
    if (thread.steady_issued < spec_.steady_accesses_per_thread) {
      return false;
    }
  }
  return true;
}

std::uint64_t Workload::footprint_bytes() const {
  std::uint64_t total = 0;
  for (const auto& region : regions_) {
    total += region.pages * kBytes4K;
  }
  return total;
}

}  // namespace numalp
