// Unit tests for the intra-cell sharding plumbing (DESIGN.md Section 10):
// the --shards setting and the worker count it gives, the worker pool's
// dispatch protocol and exception safety, and the AccessSource
// FillBatch concurrency contract the pool-parallel batch fill relies on.
// Whole-engine bit-identity across shard counts lives in
// perf_structures_test.cc and runner_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/worker_pool.h"
#include "src/core/config.h"
#include "src/core/simulation.h"
#include "src/mem/phys_mem.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/trace/tracegen.h"
#include "src/vm/address_space.h"
#include "src/vm/thp.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"
#include "src/workloads/workload.h"

namespace numalp {
namespace {

// --shards is the worker count, whatever the host: the engine spawns exactly
// the requested workers, clamped only to the simulated core count (more
// shards than cores could never get work).
TEST(ShardConfigTest, ShardsFlagSpawnsExactlyTheRequestedWorkers) {
  const report::ToolInfo info{"tool", "tool", "test tool"};
  char tool[] = "tool";
  char flag[] = "--shards";
  char eight[] = "8";
  char* argv[] = {tool, flag, eight};
  SimConfig sim = report::ParseToolArgs(3, argv, info).sim;
  EXPECT_EQ(sim.shards, 8);
  sim.max_epochs = 1;
  sim.accesses_per_thread_per_epoch = 64;

  const Topology epyc8 = Topology::Epyc8();
  ASSERT_GE(epyc8.num_cores(), 8);
  Simulation sharded(epyc8, MakeWorkloadSpec(BenchmarkId::kWC, epyc8),
                     MakePolicyConfig(PolicyKind::kLinux4K), sim);
  EXPECT_EQ(sharded.shard_count(), 8);

  const Topology tiny = Topology::Tiny();
  sim.shards = tiny.num_cores() + 7;
  Simulation clamped(tiny, MakeWorkloadSpec(BenchmarkId::kWC, tiny),
                     MakePolicyConfig(PolicyKind::kLinux4K), sim);
  EXPECT_EQ(clamped.shard_count(), tiny.num_cores());
}

TEST(ShardPoolTest, RunInvokesEveryWorkerExactlyOnce) {
  ShardPool pool(4);
  EXPECT_EQ(pool.shards(), 4);
  // Repeated dispatches through the same pool: the generation protocol must
  // not lose or double-run a worker on any round.
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(4);
    for (auto& h : hits) {
      h.store(0);
    }
    pool.Run([&](int worker) { hits[static_cast<std::size_t>(worker)].fetch_add(1); });
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(hits[static_cast<std::size_t>(w)].load(), 1) << "worker " << w;
    }
  }
}

TEST(ShardPoolTest, SingleShardRunsInline) {
  ShardPool pool(1);
  int calls = 0;
  pool.Run([&](int worker) {
    EXPECT_EQ(worker, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// A throwing worker must not let Run return while helpers still execute a
// job that points into the caller's frame: Run waits for every worker, then
// rethrows on the caller (the caller's own exception first, else the
// lowest-numbered helper's), and the pool stays usable.
TEST(ShardPoolTest, RunRethrowsAfterEveryWorkerFinishedAndStaysUsable) {
  ShardPool pool(4);
  const std::vector<std::vector<int>> thrower_sets = {{0}, {2}, {1, 3}, {0, 2}};
  for (const std::vector<int>& throwers : thrower_sets) {
    const auto throws = [&](int worker) {
      return std::find(throwers.begin(), throwers.end(), worker) != throwers.end();
    };
    std::vector<std::atomic<int>> finished(4);
    for (auto& f : finished) {
      f.store(0);
    }
    std::string caught;
    try {
      pool.Run([&](int worker) {
        if (throws(worker)) {
          throw std::runtime_error("worker " + std::to_string(worker));
        }
        // Outlast the throwers, so a Run that returned early would be seen.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished[static_cast<std::size_t>(worker)].store(1);
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "worker " + std::to_string(throwers.front()));
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(finished[static_cast<std::size_t>(w)].load(), throws(w) ? 0 : 1)
          << "worker " << w << " (first thrower " << throwers.front() << ")";
    }

    std::vector<std::atomic<int>> hits(4);
    for (auto& h : hits) {
      h.store(0);
    }
    pool.Run([&](int worker) { hits[static_cast<std::size_t>(worker)].fetch_add(1); });
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(hits[static_cast<std::size_t>(w)].load(), 1) << "worker " << w;
    }
  }
}

// The asynchronous dispatch the access engine fills the next epoch with:
// Start returns while the helpers still run, Join runs the caller's share,
// waits, and rethrows with Run's contract — the lowest-numbered failing
// helper's error, whatever order they failed in — and a normal Run works
// afterwards.
TEST(ShardPoolTest, StartJoinRethrowsLowestHelperErrorAtJoinAndStaysUsable) {
  ShardPool pool(4);
  std::atomic<bool> released{false};
  std::atomic<bool> helper_saw_release{false};
  std::vector<std::atomic<int>> ran(4);
  for (auto& r : ran) {
    r.store(0);
  }
  const std::function<void(int)> job = [&](int worker) {
    ran[static_cast<std::size_t>(worker)].store(1);
    if (worker == 1) {
      // Blocks until the caller is past Start: a Start that waited for its
      // helpers would time out here instead.
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!released.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      helper_saw_release.store(released.load());
    } else if (worker == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // fails after worker 3
      throw std::runtime_error("worker 2");
    } else if (worker == 3) {
      throw std::runtime_error("worker 3");
    }
  };
  pool.Start(job);
  released.store(true);
  EXPECT_EQ(ran[0].load(), 0);  // the caller's share waits for Join
  std::string caught;
  try {
    pool.Join();
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "worker 2");
  EXPECT_TRUE(helper_saw_release.load());
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(ran[static_cast<std::size_t>(w)].load(), 1) << "worker " << w;
  }
  pool.Join();  // nothing in flight: returns at once

  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.Run([&](int worker) { hits[static_cast<std::size_t>(worker)].fetch_add(1); });
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(hits[static_cast<std::size_t>(w)].load(), 1) << "worker " << w;
  }
}

// At one shard Start runs nothing and Join runs the whole job inline.
TEST(ShardPoolTest, SingleShardStartDefersTheJobToJoin) {
  ShardPool pool(1);
  int calls = 0;
  const std::function<void(int)> job = [&](int worker) {
    EXPECT_EQ(worker, 0);
    ++calls;
  };
  pool.Start(job);
  EXPECT_EQ(calls, 0);
  pool.Join();
  EXPECT_EQ(calls, 1);
}

// --- The FillBatch concurrency contract (access_source.h) ------------------

bool SameBatch(const std::vector<WorkloadAccess>& a, const std::vector<WorkloadAccess>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].va != b[i].va || a[i].region != b[i].region || a[i].write != b[i].write) {
      return false;
    }
  }
  return true;
}

constexpr int kFillers = 4;

// Fills every thread's batch epoch by epoch: `serial` on this thread in
// thread order, `parallel` from kFillers std::threads with filler w taking
// threads t ≡ w (mod kFillers). The engine claims threads dynamically, so
// any split must give the same batches. Batches, SetupDone() and Done()
// must agree after every epoch. Returns the number of setup epochs seen.
int ExpectConcurrentFillMatchesSerial(AccessSource& serial, AccessSource& parallel,
                                      std::size_t n, int max_epochs, const std::string& label) {
  const auto threads = static_cast<std::size_t>(serial.num_threads());
  std::vector<std::vector<WorkloadAccess>> want(threads);
  std::vector<std::vector<WorkloadAccess>> got(threads);
  int setup_epochs = 0;
  for (int epoch = 0; epoch < max_epochs && !serial.Done(); ++epoch) {
    setup_epochs += serial.SetupDone() ? 0 : 1;
    serial.BeginEpoch();
    parallel.BeginEpoch();
    for (std::size_t t = 0; t < threads; ++t) {
      serial.FillBatch(static_cast<int>(t), n, want[t]);
    }
    std::vector<std::thread> fillers;
    for (int w = 0; w < kFillers; ++w) {
      fillers.emplace_back([&, w]() {
        for (std::size_t t = static_cast<std::size_t>(w); t < threads; t += kFillers) {
          parallel.FillBatch(static_cast<int>(t), n, got[t]);
        }
      });
    }
    for (std::thread& filler : fillers) {
      filler.join();
    }
    for (std::size_t t = 0; t < threads; ++t) {
      EXPECT_TRUE(SameBatch(want[t], got[t])) << label << " epoch " << epoch << " thread " << t;
    }
    EXPECT_EQ(serial.SetupDone(), parallel.SetupDone()) << label << " epoch " << epoch;
    EXPECT_EQ(serial.Done(), parallel.Done()) << label << " epoch " << epoch;
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  return setup_epochs;
}

// Every suite workload on the 64-thread epyc8 preset, from the first setup
// epoch until the (shortened) steady budget is spent.
TEST(FillBatchConcurrencyTest, SuiteWorkloadsFillIdenticallyFromFourThreads) {
  const Topology topo = Topology::Epyc8();
  ASSERT_EQ(topo.num_cores(), 64);
  // MmapAnon only reserves virtual space, so both address spaces can share
  // one physical memory.
  PhysicalMemory phys(topo);
  ThpState thp;
  constexpr std::size_t kBatch = 1024;
  for (int id = 0; id <= static_cast<int>(BenchmarkId::kStreamcluster); ++id) {
    WorkloadSpec spec = MakeWorkloadSpec(static_cast<BenchmarkId>(id), topo);
    spec.steady_accesses_per_thread = 2 * kBatch;
    AddressSpace serial_space(phys, topo, thp);
    AddressSpace parallel_space(phys, topo, thp);
    Workload serial(spec, serial_space, topo.num_cores(), /*seed=*/7);
    Workload parallel(spec, parallel_space, topo.num_cores(), /*seed=*/7);
    const int setup_epochs =
        ExpectConcurrentFillMatchesSerial(serial, parallel, kBatch, /*max_epochs=*/64, spec.name);
    EXPECT_GT(setup_epochs, 0) << spec.name;
    EXPECT_TRUE(serial.Done()) << spec.name;
  }
}

// Trace replay only reads the decoded epoch, across region maps and unmaps.
TEST(FillBatchConcurrencyTest, TraceReplayFillsIdenticallyFromFourThreads) {
  const Topology topo = Topology::Epyc8();
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "shard_fill_epyc8.bin").string();
  trace::TracegenOptions gen;
  gen.profile = "ckpt-churn";
  gen.topo = topo;
  gen.seed = 3;
  gen.accesses_per_thread = 256;
  gen.epochs = 8;
  trace::GenerateTrace(gen, path);

  PhysicalMemory phys(topo);
  ThpState thp;
  AddressSpace serial_space(phys, topo, thp);
  AddressSpace parallel_space(phys, topo, thp);
  TraceWorkload serial(path, serial_space, topo.num_cores());
  TraceWorkload parallel(path, parallel_space, topo.num_cores());
  ExpectConcurrentFillMatchesSerial(serial, parallel, gen.accesses_per_thread,
                                    /*max_epochs=*/64, "trace:ckpt-churn");
  EXPECT_TRUE(serial.Done());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace numalp
