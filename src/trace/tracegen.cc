#include "src/trace/tracegen.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/common/worker_pool.h"
#include "src/common/zipf.h"
#include "src/trace/trace_writer.h"
#include "src/workloads/access_source.h"

namespace numalp::trace {
namespace {

// One embedded phase profile. Footprints are fractions of the target
// machine's total DRAM so the same profile stresses every preset (including
// Tiny in unit tests) at the same footprint-to-DRAM ratio.
struct Profile {
  const char* name;
  int default_epochs;
  double model_frac;    // shared hot set (weights / force tables), THP-backed
  double model_zipf_s;  // page-popularity skew of the hot set
  double act_frac;      // streaming activations / neighbor lists
  double model_share;   // fraction of steady accesses hitting the hot set
  double write_fraction;
  // Checkpoint storm: one big mapped-streamed-unmapped buffer sized as a
  // fraction of (DRAM - persistent footprint). 0 = no storm.
  double storm_frac;
  int storm_epoch;
  // One retained log page is touched per this many buffer pages; the
  // retained region outlives the buffer and punctures its 2MB windows.
  std::uint32_t retained_interval;
  // Recurring shuffle / data-loader double-buffer churn.
  int cycle_interval;  // epochs between cycles; 0 = none
  double cycle_frac;   // of total DRAM
  // Late THP-eligible growth (optimizer states materializing after the
  // storm): its first-touch 2MB faults meet a fragmented buddy allocator.
  double growth_frac;  // of total DRAM; 0 = none
  int growth_epoch;
};

// Mixes modeled on the public phase behavior of the named applications:
// BERT-style training (large embedding/weight set, periodic shuffle),
// ResNet-50 (activation-heavy, data-loader churn), LAMMPS and NAMD
// (neighbor-list rebuild cycles). ckpt-churn is the flagship: a checkpoint
// storm plus retained logs engineered to fragment nearly every order-9
// window, followed by THP-eligible growth that must fault through the debris.
constexpr Profile kProfiles[] = {
    {"ckpt-churn", 120, 0.10, 1.05, 0.06, 0.60, 0.30, 0.94, 6, 256, 10, 0.05, 0.10, 16},
    {"bert", 100, 0.12, 0.90, 0.08, 0.55, 0.25, 0.0, 0, 256, 16, 0.04, 0.0, 0},
    {"resnet50", 100, 0.06, 0.80, 0.10, 0.45, 0.30, 0.0, 0, 256, 12, 0.04, 0.0, 0},
    {"lammps", 100, 0.04, 0.70, 0.14, 0.35, 0.35, 0.0, 0, 256, 20, 0.06, 0.0, 0},
    {"namd", 100, 0.05, 1.00, 0.12, 0.40, 0.30, 0.0, 0, 256, 15, 0.03, 0.0, 0},
};

const Profile* FindProfile(const std::string& name) {
  for (const Profile& profile : kProfiles) {
    if (name == profile.name) {
      return &profile;
    }
  }
  return nullptr;
}

// A steady-state region the uniform access pool draws from (activations,
// plus the growth region once its first touch completes).
struct PoolRegion {
  int region = 0;
  Addr base = 0;
  std::uint64_t pages = 0;
};

// One thread's page slice [begin, end) of a churn buffer and the pages it has
// streamed so far. The fill advances `cursor` from whichever worker claimed
// the thread, so each slice has its own cache line.
struct alignas(64) ChurnSlice {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t cursor = 0;
};

// A buffer being streamed through by all threads in parallel, each owning a
// contiguous page slice (so replayed first-touch lands per-node runs, like a
// real parallel checkpoint writer). Optionally interleaves retained-log
// touches and unmaps itself when every slice completes.
struct ChurnTask {
  int buffer_region = -1;
  Addr buffer_base = 0;
  std::uint64_t buffer_pages = 0;
  std::uint64_t buffer_bytes = 0;
  int retained_region = -1;
  Addr retained_base = 0;
  std::uint64_t retained_pages = 0;
  std::uint32_t retained_interval = 0;
  bool unmap_when_done = true;
  bool join_pool_when_done = false;
  std::vector<ChurnSlice> slices;  // indexed by thread

  bool ThreadDone(int t) const {
    const ChurnSlice& slice = slices[static_cast<std::size_t>(t)];
    return slice.begin + slice.cursor >= slice.end;
  }
  bool Done() const {
    for (int t = 0; t < static_cast<int>(slices.size()); ++t) {
      if (!ThreadDone(t)) {
        return false;
      }
    }
    return true;
  }
};

// What filling one thread's batch mutates, plus the batch's encoding. Workers
// claim threads dynamically, so neighbouring slots are written from different
// cores: each slot has its own cache line.
struct alignas(64) ThreadSlot {
  Rng rng;
  std::vector<std::uint8_t> encoded;  // this epoch's kBatch event
};

class Generator {
 public:
  Generator(const Profile& profile, const TracegenOptions& options, int workers)
      : profile_(profile),
        threads_(options.topo.num_cores()),
        per_thread_(options.accesses_per_thread),
        steady_epochs_(options.epochs > 0 ? options.epochs : profile.default_epochs),
        total_dram_(options.topo.total_dram_bytes()),
        seeder_(options.seed),
        workers_(workers) {
    if (threads_ <= 0 || per_thread_ < 4) {
      throw std::runtime_error("tracegen: need >= 1 thread and >= 4 accesses per thread");
    }
    // Compress the phase schedule proportionally when the caller shortens
    // the run (smoke harnesses), keeping every phase present.
    const double stretch =
        static_cast<double>(steady_epochs_) / static_cast<double>(profile.default_epochs);
    if (profile.storm_frac > 0.0) {
      storm_epoch_ = std::max(1, static_cast<int>(profile.storm_epoch * stretch));
    }
    if (profile.growth_frac > 0.0) {
      growth_epoch_ = std::max(storm_epoch_ + 2, static_cast<int>(profile.growth_epoch * stretch));
    }
    if (profile.cycle_interval > 0) {
      cycle_interval_ = std::max(2, static_cast<int>(profile.cycle_interval * stretch));
    }

    const std::uint64_t model_bytes = SizeFrac(profile.model_frac);
    const std::uint64_t act_bytes = SizeFrac(profile.act_frac);
    growth_bytes_ = profile.growth_frac > 0.0 ? SizeFrac(profile.growth_frac) : 0;
    // The hot set: Zipf-popular pages clustered at the region start, so the
    // hottest 4KB pages share a handful of 2MB frames (the paper's
    // false-page-sharing pathology under THP).
    model_region_ = AddRegion(model_bytes, /*thp=*/true, 0.65, 1.2);
    act_region_ = AddRegion(act_bytes, /*thp=*/true, 0.45, 4.0);
    model_pages_ = regions_[static_cast<std::size_t>(model_region_)].bytes / kBytes4K;
    act_pages_ = regions_[static_cast<std::size_t>(act_region_)].bytes / kBytes4K;
    pool_.push_back({act_region_, regions_[static_cast<std::size_t>(act_region_)].base,
                     act_pages_});
    zipf_ = std::make_unique<ZipfSampler>(model_pages_, profile.model_zipf_s);
    for (int t = 0; t < threads_; ++t) {
      slots_.push_back({seeder_.Fork(), {}});
    }
  }

  TraceHeader Header(const TracegenOptions& options) const {
    TraceHeader header;
    header.machine = options.topo.name();
    header.workload = std::string("trace:") + profile_.name;
    header.seed = options.seed;
    header.threads = static_cast<std::uint32_t>(threads_);
    header.accesses_per_thread_per_epoch = per_thread_;
    header.regions = regions_;  // the churn regions arrive as RegionMap events
    return header;
  }

  // Each epoch: schedule (map events) -> parallel fill + encode -> ordered
  // append -> retire (unmap events) -> seal. The sealed chunk is hashed and
  // written during the next epoch's fill (DESIGN.md Section 14).
  void Run(TraceWriter& writer) {
    const int setup_epochs = SetupEpochs();
    for (int s = 0; s < setup_epochs; ++s) {
      writer.BeginEpoch(/*in_setup=*/true);
      FillEpoch(writer, [this, s](int t, std::vector<WorkloadAccess>* batch) {
        FillSetupBatch(s, t, batch);
      });
      writer.SealEpoch(/*done_after=*/false);
    }
    for (int e = 0; e < steady_epochs_; ++e) {
      std::vector<RegionMapEvent> maps = ScheduleEpoch(e);
      writer.BeginEpoch(/*in_setup=*/false);
      for (const RegionMapEvent& event : maps) {
        writer.RegionMap(event);
      }
      FillEpoch(writer, [this](int t, std::vector<WorkloadAccess>* batch) {
        FillSteadyBatch(t, batch);
      });
      RetireFinishedTasks(writer);
      writer.SealEpoch(/*done_after=*/e + 1 == steady_epochs_);
    }
    writer.Finish(/*completed=*/true);
  }

 private:
  std::uint64_t SizeFrac(double frac) const {
    const auto bytes = static_cast<std::uint64_t>(static_cast<double>(total_dram_) * frac);
    return std::max(AlignUp(bytes, kBytes2M), kBytes2M);
  }

  // Mirrors AddressSpace::MmapAnon's deterministic VA placement so the
  // recorded bases match what replay's fresh address space will return.
  Addr MapVa(std::uint64_t bytes) {
    const std::uint64_t aligned = AlignUp(bytes, kBytes4K);
    const Addr base = next_base_;
    next_base_ = AlignUp(next_base_ + aligned + kBytes1G, kBytes1G);
    return base;
  }

  int AddRegion(std::uint64_t bytes, bool thp, double intensity, double mlp) {
    if (regions_.size() >= 256) {
      throw std::runtime_error("tracegen: profile needs > 256 regions");
    }
    SourceRegion region;
    region.bytes = AlignUp(bytes, kBytes4K);
    region.base = MapVa(region.bytes);
    region.thp_eligible = thp;
    region.dram_intensity = intensity;
    region.mlp = mlp;
    regions_.push_back(region);
    return static_cast<int>(regions_.size()) - 1;
  }

  // Fills and encodes every thread's batch on the pool, then appends the
  // encodings in thread order. Workers claim threads one at a time; worker 0
  // (this thread) first writes the previous epoch's sealed chunk, so the
  // hash and the write overlap the other workers' fill. A thread's batch
  // depends only on its own slot and slices, so the bytes do not depend on
  // which worker filled it.
  template <typename Fill>
  void FillEpoch(TraceWriter& writer, const Fill& fill) {
    std::atomic<int> next_thread{0};
    workers_.Run([&](int worker) {
      if (worker == 0) {
        writer.WriteSealed();
      }
      std::vector<WorkloadAccess> batch;
      for (int t = next_thread.fetch_add(1, std::memory_order_relaxed); t < threads_;
           t = next_thread.fetch_add(1, std::memory_order_relaxed)) {
        fill(t, &batch);
        std::vector<std::uint8_t>& encoded = slots_[static_cast<std::size_t>(t)].encoded;
        encoded.clear();
        PutBatch(encoded, t, batch);
      }
    });
    for (const ThreadSlot& slot : slots_) {
      writer.AppendEncoded(slot.encoded);
    }
  }

  // Setup: first-touch every persistent page, round-robin page p -> thread
  // p % T (the synthetic generators' kRoundRobinPage owner), as many
  // in_setup epochs as the footprint needs. Threads that exhaust their share
  // re-touch their own pages so every batch stays full.
  int SetupEpochs() const {
    const std::uint64_t total_pages = model_pages_ + act_pages_;
    const std::uint64_t per_thread_pages =
        (total_pages + static_cast<std::uint64_t>(threads_) - 1) /
        static_cast<std::uint64_t>(threads_);
    return static_cast<int>((per_thread_pages + per_thread_ - 1) / per_thread_);
  }

  void FillSetupBatch(int s, int t, std::vector<WorkloadAccess>* batch) const {
    batch->clear();
    const std::uint64_t total_pages = model_pages_ + act_pages_;
    const std::uint64_t owned =
        (total_pages - static_cast<std::uint64_t>(t) +
         static_cast<std::uint64_t>(threads_) - 1) /
        static_cast<std::uint64_t>(threads_);
    for (std::uint32_t i = 0; i < per_thread_; ++i) {
      std::uint64_t k = static_cast<std::uint64_t>(s) * per_thread_ + i;
      if (owned == 0) {
        break;
      }
      if (k >= owned) {
        k %= owned;  // re-touch own pages once done
      }
      const std::uint64_t page =
          static_cast<std::uint64_t>(t) + k * static_cast<std::uint64_t>(threads_);
      batch->push_back(PersistentPageAccess(page));
    }
  }

  WorkloadAccess PersistentPageAccess(std::uint64_t page) const {
    WorkloadAccess access;
    if (page < model_pages_) {
      access.va = regions_[static_cast<std::size_t>(model_region_)].base + page * kBytes4K;
      access.region = static_cast<std::uint8_t>(model_region_);
    } else {
      access.va = regions_[static_cast<std::size_t>(act_region_)].base +
                  (page - model_pages_) * kBytes4K;
      access.region = static_cast<std::uint8_t>(act_region_);
    }
    access.write = true;  // first touch
    return access;
  }

  // Decides which lifetime events fire this epoch and returns the map events
  // to record (the matching regions were just added to regions_).
  std::vector<RegionMapEvent> ScheduleEpoch(int e) {
    std::vector<RegionMapEvent> maps;
    if (e == storm_epoch_) {
      const std::uint64_t persistent =
          model_pages_ * kBytes4K + act_pages_ * kBytes4K + growth_bytes_;
      const std::uint64_t free_bytes = total_dram_ > persistent ? total_dram_ - persistent : 0;
      const auto storm_bytes =
          static_cast<std::uint64_t>(static_cast<double>(free_bytes) * profile_.storm_frac);
      StartChurn(storm_bytes, /*retained=*/true, /*unmap=*/true, /*join_pool=*/false, &maps);
    } else if (cycle_interval_ > 0 && e > 0 && e % cycle_interval_ == 0 &&
               e != growth_epoch_ && active_.empty()) {
      StartChurn(SizeFrac(profile_.cycle_frac), /*retained=*/true, /*unmap=*/true,
                 /*join_pool=*/false, &maps);
    }
    if (e == growth_epoch_) {
      StartChurn(growth_bytes_, /*retained=*/false, /*unmap=*/false, /*join_pool=*/true, &maps);
    }
    return maps;
  }

  void StartChurn(std::uint64_t bytes, bool retained, bool unmap, bool join_pool,
                  std::vector<RegionMapEvent>* maps) {
    if (bytes < kBytes4K) {
      return;
    }
    ChurnTask task;
    // Growth is THP-eligible by design (its 2MB faults are the probe);
    // transient I/O buffers and retained logs are 4KB-grained, which is what
    // lets freed buffer frames interleave with pinned log frames.
    const bool thp = join_pool;
    task.buffer_region = AddRegion(bytes, thp, join_pool ? 0.5 : 0.7, join_pool ? 4.0 : 8.0);
    const SourceRegion& buffer = regions_[static_cast<std::size_t>(task.buffer_region)];
    task.buffer_base = buffer.base;
    task.buffer_bytes = buffer.bytes;
    task.buffer_pages = buffer.bytes / kBytes4K;
    maps->push_back({task.buffer_region, buffer});
    if (retained) {
      task.retained_interval = profile_.retained_interval;
      task.retained_pages = std::max<std::uint64_t>(1, task.buffer_pages / task.retained_interval);
      task.retained_region =
          AddRegion(task.retained_pages * kBytes4K, /*thp=*/false, 0.6, 2.0);
      const SourceRegion& log = regions_[static_cast<std::size_t>(task.retained_region)];
      task.retained_base = log.base;
      maps->push_back({task.retained_region, log});
    }
    task.unmap_when_done = unmap;
    task.join_pool_when_done = join_pool;
    const std::uint64_t slice =
        (task.buffer_pages + static_cast<std::uint64_t>(threads_) - 1) /
        static_cast<std::uint64_t>(threads_);
    for (int t = 0; t < threads_; ++t) {
      const std::uint64_t begin =
          std::min(static_cast<std::uint64_t>(t) * slice, task.buffer_pages);
      task.slices.push_back({begin, std::min(begin + slice, task.buffer_pages), 0});
    }
    active_.push_back(std::move(task));
  }

  ChurnTask* ActiveTaskFor(int t) {
    for (ChurnTask& task : active_) {
      if (!task.ThreadDone(t)) {
        return &task;
      }
    }
    return nullptr;
  }

  void ChurnTouch(ChurnTask& task, int t, std::vector<WorkloadAccess>* batch) {
    ChurnSlice& slice = task.slices[static_cast<std::size_t>(t)];
    const std::uint64_t global = slice.begin + slice.cursor;
    batch->push_back({task.buffer_base + global * kBytes4K,
                      static_cast<std::uint8_t>(task.buffer_region), true});
    ++slice.cursor;
    if (task.retained_region >= 0 && (global + 1) % task.retained_interval == 0) {
      const std::uint64_t log_page =
          std::min(global / task.retained_interval, task.retained_pages - 1);
      batch->push_back({task.retained_base + log_page * kBytes4K,
                        static_cast<std::uint8_t>(task.retained_region), true});
    }
  }

  WorkloadAccess SteadyAccess(int t, Rng& rng) {
    WorkloadAccess access;
    if (rng.NextDouble() < profile_.model_share) {
      const std::uint64_t page = zipf_->Sample(rng);
      access.va = regions_[static_cast<std::size_t>(model_region_)].base + page * kBytes4K +
                  rng.Uniform(kBytes4K / 64) * 64;
      access.region = static_cast<std::uint8_t>(model_region_);
    } else {
      const PoolRegion& pool = PickPool(rng);
      const std::uint64_t slice = std::max<std::uint64_t>(
          1, pool.pages / static_cast<std::uint64_t>(threads_));
      std::uint64_t page;
      if (rng.NextDouble() < 0.8) {
        // Mostly thread-local streaming (each thread works its own slice).
        page = std::min(static_cast<std::uint64_t>(t) * slice + rng.Uniform(slice),
                        pool.pages - 1);
      } else {
        page = rng.Uniform(pool.pages);
      }
      access.va = pool.base + page * kBytes4K + rng.Uniform(kBytes4K / 64) * 64;
      access.region = static_cast<std::uint8_t>(pool.region);
    }
    access.write = rng.Bernoulli(profile_.write_fraction);
    return access;
  }

  const PoolRegion& PickPool(Rng& rng) {
    std::uint64_t total = 0;
    for (const PoolRegion& pool : pool_) {
      total += pool.pages;
    }
    std::uint64_t x = rng.Uniform(total);
    for (const PoolRegion& pool : pool_) {
      if (x < pool.pages) {
        return pool;
      }
      x -= pool.pages;
    }
    return pool_.back();
  }

  void FillSteadyBatch(int t, std::vector<WorkloadAccess>* batch) {
    batch->clear();
    Rng& rng = slots_[static_cast<std::size_t>(t)].rng;
    while (batch->size() < per_thread_) {
      ChurnTask* task = ActiveTaskFor(t);
      // A churn touch may carry a piggybacked retained-log touch; keep two
      // slots free so the pair never splits across epochs.
      if (task != nullptr && batch->size() + 2 <= per_thread_) {
        ChurnTouch(*task, t, batch);
      } else {
        batch->push_back(SteadyAccess(t, rng));
      }
    }
  }

  void RetireFinishedTasks(TraceWriter& writer) {
    for (std::size_t i = 0; i < active_.size();) {
      ChurnTask& task = active_[i];
      if (!task.Done()) {
        ++i;
        continue;
      }
      if (task.unmap_when_done) {
        writer.RegionUnmap({task.buffer_region, task.buffer_base, task.buffer_bytes});
      }
      if (task.join_pool_when_done) {
        pool_.push_back({task.buffer_region, task.buffer_base, task.buffer_pages});
      }
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  const Profile& profile_;
  const int threads_;
  const std::uint32_t per_thread_;
  const int steady_epochs_;
  const std::uint64_t total_dram_;
  Rng seeder_;
  std::vector<ThreadSlot> slots_;  // indexed by thread
  ShardPool workers_;

  Addr next_base_ = 1ull << 32;
  std::vector<SourceRegion> regions_;
  int model_region_ = -1;
  int act_region_ = -1;
  std::uint64_t model_pages_ = 0;
  std::uint64_t act_pages_ = 0;
  std::uint64_t growth_bytes_ = 0;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<PoolRegion> pool_;
  std::vector<ChurnTask> active_;

  int storm_epoch_ = -1;
  int growth_epoch_ = -1;
  int cycle_interval_ = 0;
};

}  // namespace

const std::vector<std::string>& TracegenProfiles() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Profile& profile : kProfiles) {
      names.emplace_back(profile.name);
    }
    return names;
  }();
  return kNames;
}

void GenerateTrace(const TracegenOptions& options, const std::string& out_path) {
  const int host = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  detail::GenerateTrace(options, out_path, std::min(options.topo.num_cores(), host));
}

namespace detail {

void GenerateTrace(const TracegenOptions& options, const std::string& out_path, int workers) {
  const Profile* profile = FindProfile(options.profile);
  if (profile == nullptr) {
    std::string valid;
    for (const std::string& name : TracegenProfiles()) {
      valid += valid.empty() ? name : ", " + name;
    }
    throw std::runtime_error("tracegen: unknown profile '" + options.profile +
                             "' (valid: " + valid + ")");
  }
  Generator generator(*profile, options, workers);
  TraceWriter writer(out_path, generator.Header(options));
  generator.Run(writer);
}

}  // namespace detail

}  // namespace numalp::trace
