// Trace capture/replay tests (DESIGN.md Section 14): binary-format
// round-trips, strict corruption rejection, capture -> replay ResultRow
// byte-identity across shard counts and engines, the unmap-churn ->
// buddy-fragmentation regression the tracegen profiles exist to drive, and
// tracegen's pinned bytes, worker-count independence and CLI parsing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/topo/topology.h"
#include "src/trace/trace_format.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_writer.h"
#include "src/trace/tracegen.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"
#include "tests/oracles/identity.h"
#include "tests/oracles/serial_engine.h"

namespace numalp {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

trace::TraceHeader GoldenHeader() {
  trace::TraceHeader header;
  header.machine = "tiny";
  header.workload = "unit";
  header.seed = 7;
  header.threads = 2;
  header.accesses_per_thread_per_epoch = 8;
  SourceRegion r0;
  r0.base = 1ull << 32;
  r0.bytes = 2 * kMiB;
  r0.thp_eligible = true;
  r0.dram_intensity = 0.625;
  r0.mlp = 2.0;
  SourceRegion r1;
  r1.base = (1ull << 32) + (1ull << 30);
  r1.bytes = 64 * kKiB;
  r1.thp_eligible = false;
  r1.explicit_page = PageSize::k2M;
  r1.dram_intensity = 0.25;
  r1.mlp = 1.0;
  header.regions = {r0, r1};
  return header;
}

void ExpectRegionEq(const SourceRegion& want, const SourceRegion& got) {
  EXPECT_EQ(want.base, got.base);
  EXPECT_EQ(want.bytes, got.bytes);
  EXPECT_EQ(want.thp_eligible, got.thp_eligible);
  EXPECT_EQ(want.explicit_page, got.explicit_page);
  EXPECT_DOUBLE_EQ(want.dram_intensity, got.dram_intensity);
  EXPECT_DOUBLE_EQ(want.mlp, got.mlp);
}

// Writer -> reader golden: the decoded stream must equal what was fed in,
// including negative VA deltas, lifetime events, and the completion marker.
TEST(TraceFormatTest, RoundTripsHeaderEpochsAndLifetimeEvents) {
  const std::string path = TempPath("trace_roundtrip.bin");
  const trace::TraceHeader header = GoldenHeader();

  // Deltas exercise both varint tails: forward strides and a backward jump.
  const std::vector<WorkloadAccess> batch0 = {
      {header.regions[0].base + 4096, 0, false},
      {header.regions[0].base + 8192, 0, true},
      {header.regions[0].base + 64, 0, false},  // negative delta
      {header.regions[1].base + 300, 1, true},
  };
  const std::vector<WorkloadAccess> batch1 = {
      {header.regions[1].base, 1, false},
      {header.regions[1].base + 40960, 1, false},
  };
  RegionMapEvent map_event;
  map_event.region = 2;
  map_event.desc.base = (1ull << 32) + (2ull << 30);
  map_event.desc.bytes = 4 * kMiB;
  map_event.desc.thp_eligible = true;
  map_event.desc.dram_intensity = 0.75;
  map_event.desc.mlp = 4.0;
  RegionUnmapEvent unmap_event;
  unmap_event.region = 1;
  unmap_event.base = header.regions[1].base;
  unmap_event.bytes = header.regions[1].bytes;

  {
    trace::TraceWriter writer(path, header);
    writer.BeginEpoch(/*in_setup=*/true);
    writer.Batch(0, batch0);
    writer.EndEpoch(/*done_after=*/false);
    writer.BeginEpoch(/*in_setup=*/false);
    writer.RegionMap(map_event);
    writer.RegionUnmap(unmap_event);
    writer.Batch(1, batch1);
    writer.EndEpoch(/*done_after=*/true);
    writer.Finish(/*completed=*/true);
  }

  trace::TraceReader reader(path);
  EXPECT_EQ(reader.header().machine, header.machine);
  EXPECT_EQ(reader.header().workload, header.workload);
  EXPECT_EQ(reader.header().seed, header.seed);
  EXPECT_EQ(reader.header().threads, header.threads);
  EXPECT_EQ(reader.header().accesses_per_thread_per_epoch,
            header.accesses_per_thread_per_epoch);
  EXPECT_EQ(reader.header().Provenance(), "unit@tiny#7");
  ASSERT_EQ(reader.header().regions.size(), 2u);
  ExpectRegionEq(header.regions[0], reader.header().regions[0]);
  ExpectRegionEq(header.regions[1], reader.header().regions[1]);

  trace::TraceEpoch epoch;
  ASSERT_TRUE(reader.NextEpoch(&epoch));
  EXPECT_TRUE(epoch.in_setup);
  EXPECT_FALSE(epoch.done_after);
  EXPECT_TRUE(epoch.maps.empty());
  EXPECT_TRUE(epoch.unmaps.empty());
  ASSERT_GE(epoch.batches.size(), 1u);
  ASSERT_EQ(epoch.batches[0].size(), batch0.size());
  for (std::size_t i = 0; i < batch0.size(); ++i) {
    EXPECT_EQ(batch0[i].va, epoch.batches[0][i].va) << "access " << i;
    EXPECT_EQ(batch0[i].region, epoch.batches[0][i].region);
    EXPECT_EQ(batch0[i].write, epoch.batches[0][i].write);
  }

  ASSERT_TRUE(reader.NextEpoch(&epoch));
  EXPECT_FALSE(epoch.in_setup);
  EXPECT_TRUE(epoch.done_after);
  ASSERT_EQ(epoch.maps.size(), 1u);
  EXPECT_EQ(epoch.maps[0].region, map_event.region);
  ExpectRegionEq(map_event.desc, epoch.maps[0].desc);
  ASSERT_EQ(epoch.unmaps.size(), 1u);
  EXPECT_EQ(epoch.unmaps[0].region, unmap_event.region);
  EXPECT_EQ(epoch.unmaps[0].base, unmap_event.base);
  EXPECT_EQ(epoch.unmaps[0].bytes, unmap_event.bytes);
  ASSERT_EQ(epoch.batches.size(), 2u);
  EXPECT_TRUE(epoch.batches[0].empty());
  ASSERT_EQ(epoch.batches[1].size(), batch1.size());
  for (std::size_t i = 0; i < batch1.size(); ++i) {
    EXPECT_EQ(batch1[i].va, epoch.batches[1][i].va) << "access " << i;
  }

  EXPECT_FALSE(reader.NextEpoch(&epoch));
  EXPECT_TRUE(epoch.trace_end);
  EXPECT_TRUE(reader.completed());
  EXPECT_EQ(trace::ReadTraceHeader(path).Provenance(), "unit@tiny#7");
  std::filesystem::remove(path);
}

// An abandoned writer (no Finish) marks the trace incomplete, not corrupt.
TEST(TraceFormatTest, AbandonedWriterRecordsIncomplete) {
  const std::string path = TempPath("trace_abandoned.bin");
  {
    trace::TraceWriter writer(path, GoldenHeader());
    writer.BeginEpoch(/*in_setup=*/false);
    writer.EndEpoch(/*done_after=*/false);
    // Destructor writes the end marker with completed=false.
  }
  trace::TraceReader reader(path);
  trace::TraceEpoch epoch;
  ASSERT_TRUE(reader.NextEpoch(&epoch));
  EXPECT_FALSE(reader.NextEpoch(&epoch));
  EXPECT_FALSE(reader.completed());
  std::filesystem::remove(path);
}

void WriteSmallTrace(const std::string& path) {
  trace::TraceWriter writer(path, GoldenHeader());
  writer.BeginEpoch(/*in_setup=*/false);
  writer.Batch(0, {{(1ull << 32) + 4096, 0, true}});
  writer.EndEpoch(/*done_after=*/true);
  writer.Finish(/*completed=*/true);
}

void DrainTrace(const std::string& path) {
  trace::TraceReader reader(path);
  trace::TraceEpoch epoch;
  while (reader.NextEpoch(&epoch)) {
  }
}

TEST(TraceFormatTest, RejectsBadMagic) {
  const std::string path = TempPath("trace_badmagic.bin");
  WriteSmallTrace(path);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes[0] ^= 0xff;
  WriteAll(path, bytes);
  EXPECT_THROW(DrainTrace(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceFormatTest, RejectsTruncatedFile) {
  const std::string path = TempPath("trace_truncated.bin");
  WriteSmallTrace(path);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 8u);
  bytes.resize(bytes.size() - 5);  // cut into the trailing chunk
  WriteAll(path, bytes);
  EXPECT_THROW(DrainTrace(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceFormatTest, RejectsCorruptChunkPayload) {
  const std::string path = TempPath("trace_corrupt.bin");
  WriteSmallTrace(path);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 2u);
  bytes[bytes.size() - 2] ^= 0x40;  // flip a payload byte -> checksum mismatch
  WriteAll(path, bytes);
  EXPECT_THROW(DrainTrace(path), std::runtime_error);
  std::filesystem::remove(path);
}

// Capture once, then replay windowed at shards 1 and 4 and on the pure
// serial loop (tests/oracles/serial_engine.h): every replayed row must
// reproduce the capturing run's row byte-for-byte (DESIGN.md Section 14's
// determinism contract).
TEST(TraceCaptureReplayTest, ReplayReproducesCaptureRowAcrossShardsAndEngines) {
  const std::string path = TempPath("trace_capture_cg.bin");
  const Topology topo = Topology::Tiny();

  SimConfig sim;
  sim.seed = 42;
  sim.max_epochs = 6;
  sim.accesses_per_thread_per_epoch = 256;

  RunSpec capture;
  capture.topo = topo;
  capture.workload = MakeWorkloadSpec(BenchmarkId::kWC, topo);
  capture.workload.capture_file = path;
  capture.policy = MakePolicyConfig(PolicyKind::kThp);
  capture.sim = sim;
  Simulation capture_sim(topo, capture.workload, capture.policy, capture.sim);
  const RunResult capture_run = capture_sim.Run();
  const std::string golden = SerializeRow(capture, capture_run);
  EXPECT_NE(capture_run.trace_source.find("@tiny#42"), std::string::npos);

  struct Variant {
    int shards;
    bool serial;
  };
  const std::vector<Variant> variants = {{1, false}, {4, false}, {1, true}};
  for (const Variant& v : variants) {
    RunSpec replay;
    replay.topo = topo;
    replay.workload = MakeTraceWorkloadSpec(path);
    replay.policy = MakePolicyConfig(PolicyKind::kThp);
    replay.sim = sim;
    replay.sim.shards = v.shards;
    Simulation replay_sim(topo, replay.workload, replay.policy, replay.sim);
    const RunResult replay_run = v.serial ? SerialEngine::Run(replay_sim) : replay_sim.Run();
    EXPECT_EQ(golden, SerializeRow(replay, replay_run))
        << "shards=" << v.shards << " serial=" << v.serial;
  }
  std::filesystem::remove(path);
}

// Capture under the sharded engine: batches are filled on the shard pool
// there, but the writer is fed in thread order afterwards, so the trace file
// must be byte-identical to the serial capture — setup and steady epochs.
TEST(TraceCaptureReplayTest, CaptureIsByteIdenticalAcrossShards) {
  const Topology topo = Topology::Tiny();
  SimConfig sim;
  sim.seed = 42;
  sim.max_epochs = 8;
  sim.accesses_per_thread_per_epoch = 2048;

  const auto capture = [&](int shards, const std::string& path) {
    WorkloadSpec spec = MakeWorkloadSpec(BenchmarkId::kWC, topo);
    spec.capture_file = path;
    SimConfig config = sim;
    config.shards = shards;
    Simulation s(topo, spec, MakePolicyConfig(PolicyKind::kThp), config);
    EXPECT_EQ(s.shard_count(), shards);
    s.Run();
    return ReadAll(path);
  };
  const std::string serial_path = TempPath("trace_capture_shards1.bin");
  const std::string sharded_path = TempPath("trace_capture_shards4.bin");
  const std::vector<std::uint8_t> serial = capture(1, serial_path);
  const std::vector<std::uint8_t> sharded = capture(4, sharded_path);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(serial == sharded) << "serial " << serial.size() << " B, sharded "
                                 << sharded.size() << " B";

  // The capture spans both phases, so the pool filled setup and steady epochs.
  trace::TraceReader reader(serial_path);
  trace::TraceEpoch epoch;
  int setup_epochs = 0;
  int steady_epochs = 0;
  while (reader.NextEpoch(&epoch)) {
    if (epoch.in_setup) {
      ++setup_epochs;
    } else {
      ++steady_epochs;
    }
  }
  EXPECT_GT(setup_epochs, 0);
  EXPECT_GT(steady_epochs, 0);
  std::filesystem::remove(serial_path);
  std::filesystem::remove(sharded_path);

  // A ckpt-churn replay, recaptured: region maps and unmaps and the
  // setup->steady transition all pass through the capture points, whose
  // order relative to the batch fill must not depend on the shard count.
  // Both the recaptured files and the rows must be byte-identical.
  const std::string churn_path = TempPath("trace_capture_churn_source.bin");
  trace::TracegenOptions gen;
  gen.topo = topo;
  gen.seed = 42;
  gen.accesses_per_thread = 512;
  gen.epochs = 24;
  gen.profile = "ckpt-churn";
  trace::GenerateTrace(gen, churn_path);
  RunSpec churn;
  churn.topo = topo;
  churn.workload = MakeTraceWorkloadSpec(churn_path);
  churn.policy = MakePolicyConfig(PolicyKind::kCarrefourLp);
  churn.sim = sim;
  churn.sim.max_epochs = 400;
  churn.sim.accesses_per_thread_per_epoch = gen.accesses_per_thread;
  const auto recapture = [&](int shards, const std::string& path) {
    RunSpec spec = churn;
    spec.workload.capture_file = path;
    spec.sim.shards = shards;
    Simulation s(topo, spec.workload, spec.policy, spec.sim);
    EXPECT_EQ(s.shard_count(), shards);
    const RunResult run = s.Run();
    EXPECT_TRUE(run.completed) << "shards=" << shards;
    EXPECT_GT(run.region_maps, 0u) << "shards=" << shards;
    EXPECT_GT(run.region_unmaps, 0u) << "shards=" << shards;
    return std::pair{ReadAll(path), SerializeRow(spec, run)};
  };
  const std::string churn_serial_path = TempPath("trace_recapture_shards1.bin");
  const auto [churn_bytes, churn_row] = recapture(1, churn_serial_path);
  ASSERT_FALSE(churn_bytes.empty());
  for (const int shards : {2, 4}) {
    const std::string path =
        TempPath("trace_recapture_shards" + std::to_string(shards) + ".bin");
    const auto [bytes, row] = recapture(shards, path);
    EXPECT_TRUE(bytes == churn_bytes) << "shards=" << shards << ": " << bytes.size()
                                      << " B vs " << churn_bytes.size() << " B";
    EXPECT_EQ(row, churn_row) << "shards=" << shards;
    std::filesystem::remove(path);
  }
  trace::TraceReader recaptured(churn_serial_path);
  bool saw_setup = false;
  bool saw_steady = false;
  while (recaptured.NextEpoch(&epoch)) {
    (epoch.in_setup ? saw_setup : saw_steady) = true;
  }
  EXPECT_TRUE(saw_setup && saw_steady);
  std::filesystem::remove(churn_path);
  std::filesystem::remove(churn_serial_path);
}

// The ckpt-churn profile's mmap/munmap storm must reach the buddy allocator:
// real unmaps, real bytes freed, and a measurably fragmented free list
// compared with the same machine running a churn-free profile.
TEST(TraceChurnTest, CkptChurnUnmapsFragmentTheBuddyAllocator) {
  const Topology topo = Topology::Tiny();
  const std::string churn_path = TempPath("trace_tiny_churn.bin");
  const std::string calm_path = TempPath("trace_tiny_calm.bin");

  trace::TracegenOptions gen;
  gen.topo = topo;
  gen.seed = 42;
  gen.accesses_per_thread = 1024;
  gen.epochs = 40;
  gen.profile = "ckpt-churn";
  trace::GenerateTrace(gen, churn_path);
  gen.profile = "bert";  // steady phases, no checkpoint storm
  trace::GenerateTrace(gen, calm_path);

  SimConfig sim;
  sim.seed = 42;
  sim.max_epochs = 400;
  sim.accesses_per_thread_per_epoch = 1024;

  const auto replay = [&](const std::string& path) {
    Simulation s(topo, MakeTraceWorkloadSpec(path), MakePolicyConfig(PolicyKind::kLinux4K),
                 sim);
    return s.Run();
  };
  const RunResult churn = replay(churn_path);
  const RunResult calm = replay(calm_path);

  EXPECT_TRUE(churn.completed);
  EXPECT_GT(churn.region_maps, 0u);
  EXPECT_GT(churn.region_unmaps, 0u);
  EXPECT_GT(churn.unmapped_bytes, 0u);
  // The storm's interleaved retained pages must leave the free lists more
  // fragmented than the churn-free twin on the same machine and seed.
  EXPECT_GT(churn.frag_index_pct, calm.frag_index_pct);
  EXPECT_GT(churn.frag_index_pct, 0.0);

  std::filesystem::remove(churn_path);
  std::filesystem::remove(calm_path);
}

// Synthesized traces are pinned byte for byte: file size and the FNV-1a of
// the whole file, per profile, on a machine-A run long enough to reach every
// phase the profile has (ckpt-churn: the storm, the growth region and the
// recurring cycles behind them; the others: their shuffle cycles). Any
// change to the generator's draw order or the encoding shows here first.
TEST(TracegenTest, PinnedDigestsForEveryProfile) {
  struct Pin {
    const char* profile;
    std::size_t bytes;
    std::uint64_t fnv1a;
    int unmaps;  // retired churn buffers: storm and cycles
  };
  const Pin pins[] = {
      {"ckpt-churn", 1477259, 0xaf8473e90dca89c2ull, 3},
      {"bert", 1750987, 0x656da6625c32e9f0ull, 7},
      {"resnet50", 1637717, 0xa03460d7336868c4ull, 11},
      {"lammps", 1694299, 0xd141ac7ec855f2cbull, 5},
      {"namd", 1716937, 0x2b4008039f3af545ull, 7},
  };
  ASSERT_EQ(std::size(pins), trace::TracegenProfiles().size());
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.profile);
    const std::string path = TempPath(std::string("trace_pinned_") + pin.profile + ".bin");
    trace::TracegenOptions gen;
    gen.profile = pin.profile;
    gen.topo = Topology::MachineA();
    gen.seed = 42;
    gen.accesses_per_thread = 512;
    gen.epochs = 24;
    trace::GenerateTrace(gen, path);
    const std::vector<std::uint8_t> bytes = ReadAll(path);
    EXPECT_EQ(bytes.size(), pin.bytes);
    EXPECT_EQ(trace::Fnv1a(bytes.data(), bytes.size()), pin.fnv1a)
        << std::hex << "0x" << trace::Fnv1a(bytes.data(), bytes.size());

    trace::TraceReader reader(path);
    trace::TraceEpoch epoch;
    int unmaps = 0;
    while (reader.NextEpoch(&epoch)) {
      unmaps += static_cast<int>(epoch.unmaps.size());
    }
    EXPECT_EQ(unmaps, pin.unmaps);
    std::filesystem::remove(path);
  }
}

// The pool's worker count is the host's hardware concurrency, so it must not
// reach the bytes: one worker and several real ones, each claiming
// threads in whatever order the scheduler allows, write the same file. The
// storm and growth slices and the pipelined chunk writes are all in range.
TEST(TracegenTest, BytesDoNotDependOnWorkerCount) {
  trace::TracegenOptions gen;
  gen.profile = "ckpt-churn";
  gen.topo = Topology::MachineA();
  gen.seed = 7;
  gen.accesses_per_thread = 512;
  gen.epochs = 24;
  const auto generate = [&](int workers) {
    const std::string path = TempPath("trace_workers_" + std::to_string(workers) + ".bin");
    trace::detail::GenerateTrace(gen, path, workers);
    std::vector<std::uint8_t> bytes = ReadAll(path);
    std::filesystem::remove(path);
    return bytes;
  };
  const std::vector<std::uint8_t> serial = generate(1);
  ASSERT_FALSE(serial.empty());
  for (const int workers : {2, 3, 4}) {
    EXPECT_TRUE(generate(workers) == serial) << workers << " workers";
  }
}

// numalp_tracegen once parsed integers leniently: `--seed abc` wrote seed 0,
// `--epochs 4O` 4 epochs, `--epochs -3` the profile default and
// `--accesses 4294967300` wrapped to 4, each exiting 0, and `--machine
// bogus` printed only the usage. Every malformed or out-of-range value must
// now exit 2 naming the flag, before any file is written.
TEST(TracegenDeathTest, CliRejectsMalformedIntegers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string out = TempPath("trace_cli_rejected.bin");
  std::filesystem::remove(out);
  const auto run = [&](std::vector<std::string> args) {
    args.insert(args.begin(), {NUMALP_TRACEGEN, "--profile", "bert", "--out", out});
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  };
  for (const auto& [flag, bad] :
       {std::pair{"--seed", "abc"}, std::pair{"--seed", "7x"}, std::pair{"--seed", "-1"},
        std::pair{"--epochs", "4O"}, std::pair{"--epochs", "-3"},
        std::pair{"--accesses", "4294967300"}, std::pair{"--accesses", "3"}}) {
    EXPECT_EXIT(run({flag, bad}), ::testing::ExitedWithCode(2),
                std::string(flag) + ": expected an integer in \\[");
  }
  EXPECT_EXIT(run({"--machine", "bogus"}), ::testing::ExitedWithCode(2),
              "--machine: expected A\\|B\\|epyc8\\|snc16\\|cxl, got 'bogus'");
  EXPECT_FALSE(std::filesystem::exists(out));
  // The range ends parse: --list-profiles exits 0 once every flag before it
  // was accepted.
  EXPECT_EXIT(run({"--seed", "0", "--epochs", "0", "--accesses", "4", "--accesses", "4294967295",
                   "--list-profiles"}),
              ::testing::ExitedWithCode(0), "");
}

// Replay refuses a trace recorded for a different thread count: silently
// remapping threads would destroy the byte-identity contract.
TEST(TraceWorkloadTest, RejectsThreadCountMismatch) {
  const std::string path = TempPath("trace_mismatch.bin");
  trace::TracegenOptions gen;
  gen.topo = Topology::MachineA();  // 24 threads; Tiny has 4
  gen.seed = 1;
  gen.accesses_per_thread = 64;
  gen.epochs = 2;
  gen.profile = "bert";
  trace::GenerateTrace(gen, path);

  const Topology tiny = Topology::Tiny();
  PhysicalMemory phys(tiny);
  ThpState thp;
  AddressSpace space(phys, tiny, thp);
  EXPECT_THROW(TraceWorkload(path, space, tiny.num_cores()), std::runtime_error);
  std::filesystem::remove(path);
}

// Every access must name a region mapped by the end of its epoch's RegionMap
// events: the engine indexes its per-region cost tables by the id, and the
// chunk checksum (FNV-1a, not a MAC) does not stop a crafted file. The
// writer frames the out-of-range id with a valid checksum, so only the
// region check can reject it.
TEST(TraceWorkloadTest, RejectsAccessToUnmappedRegion) {
  const Topology tiny = Topology::Tiny();
  SourceRegion first;
  first.bytes = 2 * kMiB;
  first.dram_intensity = 0.5;
  first.mlp = 1.0;
  SourceRegion second = first;
  {
    // Replay re-creates VMAs at their recorded bases, so record the bases a
    // fresh address space hands out.
    PhysicalMemory phys(tiny);
    ThpState thp;
    AddressSpace space(phys, tiny, thp);
    first.base = space.MmapAnon(first.bytes, VmaOptions{});
    second.base = space.MmapAnon(second.bytes, VmaOptions{});
  }
  trace::TraceHeader header;
  header.machine = tiny.name();
  header.workload = "crafted";
  header.threads = static_cast<std::uint32_t>(tiny.num_cores());
  header.accesses_per_thread_per_epoch = 8;
  header.regions = {first};

  const auto write = [&](const std::string& path, bool map_second) {
    trace::TraceWriter writer(path, header);
    writer.BeginEpoch(/*in_setup=*/false);
    if (map_second) {
      writer.RegionMap(RegionMapEvent{1, second});
    }
    writer.Batch(0, {{first.base, 0, false}, {second.base + 4096, 1, true}});
    writer.EndEpoch(/*done_after=*/true);
    writer.Finish(/*completed=*/true);
  };
  const std::string mapped_path = TempPath("trace_region_mapped.bin");
  const std::string crafted_path = TempPath("trace_region_crafted.bin");
  write(mapped_path, /*map_second=*/true);
  write(crafted_path, /*map_second=*/false);
  DrainTrace(crafted_path);  // well-framed: the reader alone accepts it

  SimConfig sim;
  sim.max_epochs = 4;
  sim.accesses_per_thread_per_epoch = 8;
  const auto replay = [&](const std::string& path) {
    Simulation s(tiny, MakeTraceWorkloadSpec(path), MakePolicyConfig(PolicyKind::kLinux4K),
                 sim);
    return s.Run();
  };
  EXPECT_TRUE(replay(mapped_path).completed);
  try {
    replay(crafted_path);
    ADD_FAILURE() << "a trace access to unmapped region 1 was replayed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("region 1"), std::string::npos) << error.what();
  }
  std::filesystem::remove(mapped_path);
  std::filesystem::remove(crafted_path);
}

// A RegionMap whose recorded base is not what a fresh address space hands
// out cannot be replayed: the VMA would sit elsewhere than the recorded
// accesses. The map arrives in the second epoch, after a full first epoch,
// and the cell fails with the same status at every shard count.
TEST(TraceWorkloadTest, RejectsRegionMapAtAnotherBase) {
  const Topology tiny = Topology::Tiny();
  SourceRegion first;
  first.bytes = 2 * kMiB;
  first.dram_intensity = 0.5;
  first.mlp = 1.0;
  SourceRegion second = first;
  {
    PhysicalMemory phys(tiny);
    ThpState thp;
    AddressSpace space(phys, tiny, thp);
    first.base = space.MmapAnon(first.bytes, VmaOptions{});
    second.base = space.MmapAnon(second.bytes, VmaOptions{}) + 2 * kMiB;
  }
  trace::TraceHeader header;
  header.machine = tiny.name();
  header.workload = "crafted";
  header.threads = static_cast<std::uint32_t>(tiny.num_cores());
  header.accesses_per_thread_per_epoch = 8;
  header.regions = {first};
  const std::string path = TempPath("trace_region_base_mismatch.bin");
  {
    trace::TraceWriter writer(path, header);
    writer.BeginEpoch(/*in_setup=*/false);
    writer.Batch(0, {{first.base, 0, false}});
    writer.EndEpoch(/*done_after=*/false);
    writer.BeginEpoch(/*in_setup=*/false);
    writer.RegionMap(RegionMapEvent{1, second});
    writer.Batch(0, {{second.base, 1, true}});
    writer.EndEpoch(/*done_after=*/true);
    writer.Finish(/*completed=*/true);
  }
  DrainTrace(path);  // well-framed: the reader alone accepts it

  std::vector<std::string> statuses;
  for (const int shards : {1, 4}) {
    RunSpec spec;
    spec.topo = tiny;
    spec.workload = MakeTraceWorkloadSpec(path);
    spec.policy = MakePolicyConfig(PolicyKind::kCarrefourLp);
    spec.sim.max_epochs = 4;
    spec.sim.accesses_per_thread_per_epoch = 8;
    spec.sim.shards = shards;
    ExperimentRunner runner(1);
    const std::vector<RunResult> results = runner.Run({spec});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_NE(results[0].status.find("replayed VMA base mismatch"), std::string::npos)
        << "shards=" << shards << ": " << results[0].status;
    statuses.push_back(results[0].status);
  }
  EXPECT_EQ(statuses[0], statuses[1]);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace numalp
