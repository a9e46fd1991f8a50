#include <gtest/gtest.h>

#include "src/topo/topology.h"

namespace numalp {
namespace {

TEST(TopologyTest, MachineAShape) {
  const Topology topo = Topology::MachineA();
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.num_cores(), 24);
  EXPECT_EQ(topo.node(0).num_cores, 6);
  EXPECT_EQ(topo.name(), "machineA");
}

TEST(TopologyTest, MachineBShape) {
  const Topology topo = Topology::MachineB();
  EXPECT_EQ(topo.num_nodes(), 8);
  EXPECT_EQ(topo.num_cores(), 64);
  EXPECT_EQ(topo.node(0).num_cores, 8);
}

TEST(TopologyTest, MemoryScaleDividesDram) {
  const Topology unscaled = Topology::MachineA(1);
  const Topology scaled = Topology::MachineA(48);
  EXPECT_EQ(unscaled.node(0).dram_bytes, 12 * kGiB);
  EXPECT_EQ(scaled.node(0).dram_bytes, 12 * kGiB / 48);
}

TEST(TopologyTest, HopsDiagonalZeroAndSymmetric) {
  for (const Topology& topo : {Topology::MachineA(), Topology::MachineB()}) {
    for (int i = 0; i < topo.num_nodes(); ++i) {
      EXPECT_EQ(topo.Hops(i, i), 0);
      for (int j = 0; j < topo.num_nodes(); ++j) {
        EXPECT_EQ(topo.Hops(i, j), topo.Hops(j, i));
        if (i != j) {
          EXPECT_GE(topo.Hops(i, j), 1);
        }
      }
    }
  }
}

TEST(TopologyTest, MachineAFullyConnected) {
  const Topology topo = Topology::MachineA();
  EXPECT_EQ(topo.max_hops(), 1);
}

TEST(TopologyTest, MachineBHasTwoHopPairs) {
  const Topology topo = Topology::MachineB();
  EXPECT_EQ(topo.max_hops(), 2);
  // Same-socket pairs are direct.
  EXPECT_EQ(topo.Hops(0, 1), 1);
  EXPECT_EQ(topo.Hops(6, 7), 1);
}

TEST(TopologyTest, CoreToNodeMapping) {
  const Topology topo = Topology::MachineB();
  EXPECT_EQ(topo.NodeOfCore(0), 0);
  EXPECT_EQ(topo.NodeOfCore(7), 0);
  EXPECT_EQ(topo.NodeOfCore(8), 1);
  EXPECT_EQ(topo.NodeOfCore(63), 7);
}

TEST(TopologyTest, TotalDram) {
  const Topology topo = Topology::Tiny(64 * kMiB);
  EXPECT_EQ(topo.total_dram_bytes(), 128 * kMiB);
}

TEST(TopologyTest, NodeInfoFirstCore) {
  const Topology topo = Topology::MachineA();
  EXPECT_EQ(topo.node(2).first_core, 12);
  EXPECT_EQ(topo.node(3).id, 3);
}

TEST(TopologyTest, PaperMachinesHaveNoFarMemory) {
  for (const Topology& topo : {Topology::MachineA(), Topology::MachineB()}) {
    EXPECT_FALSE(topo.has_far_memory());
    EXPECT_EQ(topo.num_cpu_nodes(), topo.num_nodes());
    for (int n = 0; n < topo.num_nodes(); ++n) {
      EXPECT_FALSE(topo.IsFarMemory(n));
      EXPECT_EQ(topo.cpu_nodes()[static_cast<std::size_t>(n)], n);
      EXPECT_EQ(topo.node(n).extra_latency, 0u);
    }
  }
}

TEST(TopologyTest, Epyc8Shape) {
  const Topology topo = Topology::Epyc8();
  EXPECT_EQ(topo.name(), "epyc8");
  EXPECT_EQ(topo.num_nodes(), 8);
  EXPECT_EQ(topo.num_cores(), 64);
  EXPECT_EQ(topo.num_cpu_nodes(), 8);
  EXPECT_FALSE(topo.has_far_memory());
  EXPECT_EQ(topo.max_hops(), 2);
  // NPS4: quadrants of one socket are 1 hop, crossing the socket is 2.
  EXPECT_EQ(topo.Hops(0, 3), 1);
  EXPECT_EQ(topo.Hops(4, 7), 1);
  EXPECT_EQ(topo.Hops(0, 4), 2);
  EXPECT_EQ(topo.Hops(3, 7), 2);
  EXPECT_EQ(Topology::Epyc8(1).node(0).dram_bytes, 32 * kGiB);
}

TEST(TopologyTest, Snc16Shape) {
  const Topology topo = Topology::Snc16();
  EXPECT_EQ(topo.name(), "snc16");
  EXPECT_EQ(topo.num_nodes(), 16);
  EXPECT_EQ(topo.num_cores(), 64);
  EXPECT_EQ(topo.num_cpu_nodes(), 16);
  EXPECT_EQ(topo.max_hops(), 3);
  // SNC-4 inside a socket: 1 hop. Cross-socket: 1 + ring distance.
  EXPECT_EQ(topo.Hops(0, 3), 1);
  EXPECT_EQ(topo.Hops(0, 4), 2);   // adjacent socket on the ring
  EXPECT_EQ(topo.Hops(0, 8), 3);   // opposite socket
  EXPECT_EQ(topo.Hops(0, 12), 2);  // adjacent the other way around
  for (int i = 0; i < topo.num_nodes(); ++i) {
    EXPECT_EQ(topo.Hops(i, i), 0);
    for (int j = 0; j < topo.num_nodes(); ++j) {
      EXPECT_EQ(topo.Hops(i, j), topo.Hops(j, i));
    }
  }
}

TEST(TopologyTest, CxlFarMemoryTier) {
  const Topology topo = Topology::Cxl();
  EXPECT_EQ(topo.name(), "cxl");
  EXPECT_EQ(topo.num_nodes(), 10);
  EXPECT_EQ(topo.num_cpu_nodes(), 8);
  EXPECT_TRUE(topo.has_far_memory());
  // The compute complex is epyc8-shaped; the two expanders hang off it.
  for (int n = 0; n < 8; ++n) {
    EXPECT_FALSE(topo.IsFarMemory(n));
    EXPECT_EQ(topo.cpu_nodes()[static_cast<std::size_t>(n)], n);
    EXPECT_EQ(topo.node(n).extra_latency, 0u);
  }
  for (int n = 8; n < 10; ++n) {
    EXPECT_TRUE(topo.IsFarMemory(n));
    EXPECT_EQ(topo.node(n).num_cores, 0);
    EXPECT_GT(topo.node(n).extra_latency, 0u);
    EXPECT_GT(topo.node(n).dram_bytes, topo.node(0).dram_bytes);
    for (int c = 0; c < 8; ++c) {
      EXPECT_EQ(topo.Hops(n, c), 2);
    }
  }
  // All 64 cores live on the CPU nodes; core->node never maps to a far node.
  EXPECT_EQ(topo.num_cores(), 64);
  for (int c = 0; c < topo.num_cores(); ++c) {
    EXPECT_LT(topo.NodeOfCore(c), 8);
  }
}

// CoreOfThread's round-robin pinning (access_engine.cc) indexes
// cpu_nodes()[t % n].first_core + t / n; the preset core layout must keep
// first_core contiguous across CPU-bearing nodes for that to cover every
// core exactly once.
TEST(TopologyTest, DatacenterFirstCoreLayoutIsContiguous) {
  for (const Topology& topo :
       {Topology::Epyc8(), Topology::Snc16(), Topology::Cxl()}) {
    int expected_first = 0;
    for (const int n : topo.cpu_nodes()) {
      EXPECT_EQ(topo.node(n).first_core, expected_first) << topo.name();
      expected_first += topo.node(n).num_cores;
    }
    EXPECT_EQ(expected_first, topo.num_cores()) << topo.name();
  }
}

}  // namespace
}  // namespace numalp
