// Synthetic models of the paper's benchmark suite.
//
// Each model encodes the stream properties the paper measures for that
// benchmark (Table 1, Table 2): footprint, allocation intensity, partitioning
// and sharing, hot chunks, and popularity skew. Footprints are the paper's
// real footprints divided by the repository-wide 1/48 memory scale, keeping
// every footprint-to-DRAM and footprint-to-TLB-reach ratio intact.
// EXPERIMENTS.md records, per benchmark, the paper's observed numbers next to
// the numbers these models reproduce.
#include "src/workloads/spec.h"

#include <cassert>

namespace numalp {

namespace {

RegionSpec Region(std::string name, std::uint64_t bytes, double share, PatternKind pattern,
                  double dram_intensity) {
  RegionSpec region;
  region.name = std::move(name);
  region.bytes = bytes;
  region.access_share = share;
  region.pattern = pattern;
  region.dram_intensity = dram_intensity;
  return region;
}

}  // namespace

std::string_view NameOf(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kBT_B:
      return "BT.B";
    case BenchmarkId::kCG_D:
      return "CG.D";
    case BenchmarkId::kDC_A:
      return "DC.A";
    case BenchmarkId::kEP_C:
      return "EP.C";
    case BenchmarkId::kFT_C:
      return "FT.C";
    case BenchmarkId::kIS_D:
      return "IS.D";
    case BenchmarkId::kLU_B:
      return "LU.B";
    case BenchmarkId::kMG_D:
      return "MG.D";
    case BenchmarkId::kSP_B:
      return "SP.B";
    case BenchmarkId::kUA_B:
      return "UA.B";
    case BenchmarkId::kUA_C:
      return "UA.C";
    case BenchmarkId::kWC:
      return "WC";
    case BenchmarkId::kWR:
      return "WR";
    case BenchmarkId::kKmeans:
      return "Kmeans";
    case BenchmarkId::kMatrixMultiply:
      return "MatrixMultiply";
    case BenchmarkId::kPca:
      return "pca";
    case BenchmarkId::kWrmem:
      return "wrmem";
    case BenchmarkId::kSSCA:
      return "SSCA.20";
    case BenchmarkId::kSPECjbb:
      return "SPECjbb";
    case BenchmarkId::kStreamcluster:
      return "streamcluster";
  }
  return "?";
}

WorkloadSpec MakeWorkloadSpec(BenchmarkId id, const Topology& topo) {
  // Partitioned working sets are sized per thread so that per-slice geometry
  // (the ratio of a thread's block to the 2MB window) matches the real
  // benchmarks: the "unaffected" suite gets window-aligned slices of a few
  // MiB; UA/LU (and streamcluster under 1GB pages) keep deliberately fine
  // slices because page-level false sharing is their story.
  const std::uint64_t T = static_cast<std::uint64_t>(topo.num_cores());
  WorkloadSpec spec;
  spec.name = std::string(NameOf(id));

  switch (id) {
    case BenchmarkId::kBT_B: {
      // Block-tridiagonal solver: cleanly partitioned, cache-friendly.
      // THP: small TLB win; no NUMA change.
      auto grid = Region("grid", T * 8 * kMiB, 0.85, PatternKind::kSequential, 0.35);
      grid.setup_owner = SetupOwner::kPartitionOwner;
      auto faces = Region("faces", 8 * kMiB, 0.15, PatternKind::kUniform, 0.3);
      spec.regions = {grid, faces};
      break;
    }
    case BenchmarkId::kCG_D: {
      // Conjugate gradient, class D. Matrix rows stream privately per
      // thread (whole 2MB windows each); the reduction/communication
      // vectors are 16KB chunks spread 256KB apart that *every* thread
      // hammers. Under 4KB pages the chunks are 28 distinct page groups
      // spread across nodes (near-perfect balance); THP coalesces each
      // group of 8 into one 2MB page -> 3 hot pages, fewer than the node
      // count: the hot-page effect (Table 2: PAMUP 0% -> 8%, NHP 0 -> 3,
      // imbalance 1% -> 59%).
      auto rows = Region("matrix-rows", T * 6 * kMiB, 0.37, PatternKind::kSequential, 0.4);
      rows.setup_owner = SetupOwner::kPartitionOwner;
      auto vec = Region("x-vector", 8 * kMiB, 0.08, PatternKind::kUniform, 0.6);
      auto vectors = Region("hot-vectors", 6 * kMiB, 0.55, PatternKind::kHotChunks, 0.9);
      vectors.chunk_bytes = 16 * kKiB;
      vectors.chunk_stride = 256 * kKiB;
      vectors.num_chunks = 24;
      vectors.setup_owner = SetupOwner::kChunkOwner;
      spec.regions = {rows, vec, vectors};
      break;
    }
    case BenchmarkId::kDC_A: {
      auto cube = Region("cube", T * 4 * kMiB, 0.8, PatternKind::kSequential, 0.2);
      cube.setup_owner = SetupOwner::kPartitionOwner;
      auto views = Region("views", 16 * kMiB, 0.2, PatternKind::kUniform, 0.25);
      views.mlp = 2.0;
      spec.regions = {cube, views};
      break;
    }
    case BenchmarkId::kEP_C: {
      // Embarrassingly parallel in compute, but the shared constants table
      // is initialized by the master thread: a pre-existing NUMA imbalance
      // that THP neither causes nor cures — Carrefour(-LP) fixes it
      // (Figure 5).
      auto table = Region("shared-table", 2 * kMiB, 0.5, PatternKind::kUniform, 0.5);
      table.setup_owner = SetupOwner::kThreadZero;
      auto priv = Region("private", T * 2 * kMiB, 0.5, PatternKind::kPartitioned, 0.05);
      priv.local_fraction = 1.0;
      priv.setup_owner = SetupOwner::kPartitionOwner;
      spec.regions = {table, priv};
      break;
    }
    case BenchmarkId::kFT_C: {
      // 3-D FFT: large streaming transposes; modest TLB benefit from THP.
      auto data = Region("fft-grid", T * 10 * kMiB, 0.85, PatternKind::kSequential, 0.6);
      data.setup_owner = SetupOwner::kPartitionOwner;
      auto twiddle = Region("twiddle", 4 * kMiB, 0.15, PatternKind::kUniform, 0.2);
      spec.regions = {data, twiddle};
      break;
    }
    case BenchmarkId::kIS_D: {
      // Integer bucket sort, 34GB in the paper: uniformly random scatter
      // over a huge array — heavy TLB pressure, naturally balanced.
      auto keys = Region("keys", 700 * kMiB, 0.75, PatternKind::kUniform, 0.75);
      keys.mlp = 4.0;  // independent scatter: walks almost fully overlapped
      auto buckets = Region("buckets", T * 2 * kMiB, 0.25, PatternKind::kPartitioned, 0.4);
      buckets.local_fraction = 0.9;
      buckets.setup_owner = SetupOwner::kPartitionOwner;
      spec.regions = {keys, buckets};
      break;
    }
    case BenchmarkId::kLU_B: {
      // LU factorization, class B: small per-thread row blocks. Fine slices
      // mean 2MB pages span several threads' rows (PSP rises under THP) but
      // the blocked kernel rarely misses to DRAM, so the *effect* is small
      // — the workload where Carrefour-LP splitting is mostly overhead
      // (Section 4.3: -3.5% vs Carrefour-2M).
      // Blocked streaming over unaligned 8.25MiB row blocks: ~24% of each
      // block's bytes share a 2MB window with a neighbour.
      auto matrix =
          Region("lu-matrix", T * 8448 * kKiB, 0.88, PatternKind::kSequential, 0.22);
      matrix.setup_owner = SetupOwner::kPartitionOwner;
      auto pivots = Region("pivot-rows", 16 * kMiB, 0.12, PatternKind::kUniform, 0.2);
      spec.regions = {matrix, pivots};
      break;
    }
    case BenchmarkId::kMG_D: {
      auto grids = Region("multigrid", T * 12 * kMiB, 0.9, PatternKind::kSequential, 0.5);
      grids.setup_owner = SetupOwner::kPartitionOwner;
      auto coarse = Region("coarse", 6 * kMiB, 0.1, PatternKind::kUniform, 0.3);
      spec.regions = {grids, coarse};
      break;
    }
    case BenchmarkId::kSP_B: {
      // Scalar pentadiagonal: like BT plus a master-initialized coefficient
      // array (pre-existing imbalance Carrefour repairs, Figure 5).
      auto grid = Region("grid", T * 8 * kMiB, 0.7, PatternKind::kSequential, 0.35);
      grid.setup_owner = SetupOwner::kPartitionOwner;
      auto coeffs = Region("coeffs", 10 * kMiB, 0.3, PatternKind::kUniform, 0.5);
      coeffs.setup_owner = SetupOwner::kThreadZero;
      spec.regions = {grid, coeffs};
      break;
    }
    case BenchmarkId::kUA_B:
    case BenchmarkId::kUA_C: {
      // Unstructured adaptive mesh: each thread owns a fine slice of the
      // element arrays (a few hundred KB). 4KB pages are effectively
      // private (LAR ~90%); a 2MB page spans many slices -> page-level
      // false sharing (Table 2: PSP 16% -> 70%), which migration cannot fix
      // — only splitting can.
      // Mesh slices of ~1.25MiB (2.5MiB for class C): a 2MB page spans ~1.6
      // slices, so roughly half of each page's accesses come from the
      // non-owning neighbour — LAR ~90% -> ~65% under THP, like Table 3.
      const bool class_c = id == BenchmarkId::kUA_C;
      auto mesh = Region("mesh", T * (class_c ? 2560 : 1280) * kKiB, 0.8,
                         PatternKind::kPartitioned, class_c ? 0.35 : 0.4);
      mesh.local_fraction = 0.93;
      mesh.setup_owner = SetupOwner::kPartitionOwner;
      auto bulk = Region("bulk", T * (class_c ? 4 : 2) * kMiB, 0.2,
                         PatternKind::kSequential, 0.25);
      bulk.setup_owner = SetupOwner::kPartitionOwner;
      spec.regions = {mesh, bulk};
      break;
    }
    case BenchmarkId::kWC: {
      // Metis word count: the input is file-mapped (THP does not back it,
      // Section 2.1), the intermediate tables grow relentlessly — 37.6% of
      // 4KB-page runtime is the page-fault handler (Table 1), which is
      // THP's big win here (+109% on machine B).
      auto input = Region("input(file)", T * 1536 * kKiB, 0.25, PatternKind::kSequential, 0.3);
      input.thp_eligible = false;
      input.setup_owner = SetupOwner::kPartitionOwner;
      auto intermediate =
          Region("intermediate", T * 5 * kMiB, 0.55, PatternKind::kUniform, 0.5);
      intermediate.incremental = true;
      intermediate.fresh_fraction = 1.0 / 48;
      auto hash = Region("hash-head", 24 * kMiB, 0.2, PatternKind::kZipf, 0.6);
      hash.zipf_s = 0.7;
      hash.zipf_block_shuffle = 31;
      hash.setup_owner = SetupOwner::kThreadZero;
      spec.regions = {input, intermediate, hash};
      spec.steady_accesses_per_thread = 100'000;
      break;
    }
    case BenchmarkId::kWR: {
      auto input = Region("input(file)", T * 1280 * kKiB, 0.3, PatternKind::kSequential, 0.3);
      input.thp_eligible = false;
      input.setup_owner = SetupOwner::kPartitionOwner;
      auto intermediate =
          Region("intermediate", T * 4 * kMiB, 0.5, PatternKind::kUniform, 0.5);
      intermediate.incremental = true;
      intermediate.fresh_fraction = 1.0 / 96;
      auto index = Region("index", 20 * kMiB, 0.2, PatternKind::kZipf, 0.55);
      index.zipf_s = 0.6;
      index.zipf_block_shuffle = 31;
      spec.regions = {input, intermediate, index};
      spec.steady_accesses_per_thread = 100'000;
      break;
    }
    case BenchmarkId::kKmeans: {
      auto points = Region("points", T * 6 * kMiB, 0.8, PatternKind::kSequential, 0.4);
      points.setup_owner = SetupOwner::kPartitionOwner;
      auto centroids = Region("centroids", 1 * kMiB, 0.2, PatternKind::kUniform, 0.15);
      spec.regions = {points, centroids};
      break;
    }
    case BenchmarkId::kMatrixMultiply: {
      // Blocked GEMM: the shared B matrix has a popular band, so THP
      // coarsens placement and worsens imbalance >15% — but blocking keeps
      // DRAM intensity low, so performance barely moves (affected set of
      // Figure 2 with near-zero deltas).
      auto a = Region("A", T * 2 * kMiB, 0.3, PatternKind::kSequential, 0.25);
      a.setup_owner = SetupOwner::kPartitionOwner;
      auto b = Region("B", 64 * kMiB, 0.4, PatternKind::kZipf, 0.3);
      b.zipf_s = 0.5;
      b.zipf_block_shuffle = 23;
      b.mlp = 4.0;  // blocked GEMM prefetches; walks overlap
      auto c = Region("C", T * 2 * kMiB, 0.3, PatternKind::kSequential, 0.25);
      c.setup_owner = SetupOwner::kPartitionOwner;
      spec.regions = {a, b, c};
      break;
    }
    case BenchmarkId::kPca: {
      // Mean/covariance over a matrix initialized by the master thread:
      // pre-existing imbalance, large Carrefour(-LP) upside (Figure 5).
      auto matrix = Region("matrix", 64 * kMiB, 0.65, PatternKind::kUniform, 0.5);
      matrix.setup_owner = SetupOwner::kThreadZero;
      auto cov = Region("cov", T * 2 * kMiB, 0.35, PatternKind::kPartitioned, 0.3);
      cov.local_fraction = 0.9;
      cov.setup_owner = SetupOwner::kPartitionOwner;
      spec.regions = {matrix, cov};
      break;
    }
    case BenchmarkId::kWrmem: {
      // In-memory reverse index: allocation-heavy like WC (THP +51%), and
      // the hot index head makes THP worsen imbalance >15% (affected set).
      auto intermediate =
          Region("intermediate", T * 6 * kMiB, 0.6, PatternKind::kUniform, 0.5);
      intermediate.incremental = true;
      intermediate.fresh_fraction = 1.0 / 96;
      auto index = Region("index-head", 30 * kMiB, 0.25, PatternKind::kZipf, 0.6);
      index.zipf_s = 0.65;
      index.zipf_block_shuffle = 31;
      auto keys = Region("keys", T * 2 * kMiB, 0.15, PatternKind::kPartitioned, 0.35);
      keys.local_fraction = 0.9;
      keys.setup_owner = SetupOwner::kPartitionOwner;
      spec.regions = {intermediate, index, keys};
      spec.steady_accesses_per_thread = 100'000;
      break;
    }
    case BenchmarkId::kSSCA: {
      // SSCA v2.2 graph kernels, scale 20: random edge traversal over a
      // huge adjacency structure (15% of L2 misses are PTE fetches under
      // 4KB, Table 1) plus hot hub vertices scattered by the allocator
      // whose popularity THP coarsens into controller imbalance
      // (8% -> 52% on machine A) — fixable by interleaving the hot windows.
      auto adjacency = Region("adjacency", 160 * kMiB, 0.6, PatternKind::kUniform, 0.7);
      auto vertices = Region("vertex-props", 18 * kMiB, 0.4, PatternKind::kZipf, 0.6);
      vertices.zipf_s = 0.75;
      vertices.zipf_block_shuffle = 47;
      spec.regions = {adjacency, vertices};
      break;
    }
    case BenchmarkId::kSPECjbb: {
      // Warehouse heap: Zipf object popularity spread over the heap by the
      // allocator, all-thread sharing (inherently low LAR), plus a growing
      // nursery. THP removes the page-table-walk misses (7% -> 0, Table 1)
      // but coarsens placement: imbalance 16% -> 39% — fixable by
      // Carrefour-2M (Table 2), after which the TLB benefit materializes.
      auto heap = Region("heap", 120 * kMiB, 0.85, PatternKind::kZipf, 0.7);
      heap.zipf_s = 0.85;
      heap.zipf_block_shuffle = 23;
      heap.mlp = 5.0;
      auto nursery = Region("nursery", T * kMiB, 0.15, PatternKind::kUniform, 0.4);
      nursery.incremental = true;
      nursery.fresh_fraction = 0.001;
      spec.regions = {heap, nursery};
      break;
    }
    case BenchmarkId::kStreamcluster: {
      // PARSEC streamcluster (Section 4.4 only): ~4MB per-thread point
      // blocks. 2MB pages stay essentially private (no degradation,
      // footnote 6); a 1GB page spans ~256 blocks — catastrophic false
      // sharing and a single hot page (4x slowdown in the paper).
      auto points = Region("points", T * 4 * kMiB, 0.85, PatternKind::kPartitioned, 0.55);
      points.local_fraction = 0.95;
      points.setup_owner = SetupOwner::kPartitionOwner;
      auto centers = Region("centers", 2 * kMiB, 0.15, PatternKind::kUniform, 0.5);
      spec.regions = {points, centers};
      break;
    }
  }
  return spec;
}

std::vector<BenchmarkId> FullSuite() {
  return {BenchmarkId::kBT_B,   BenchmarkId::kCG_D,           BenchmarkId::kDC_A,
          BenchmarkId::kEP_C,   BenchmarkId::kFT_C,           BenchmarkId::kIS_D,
          BenchmarkId::kLU_B,   BenchmarkId::kMG_D,           BenchmarkId::kSP_B,
          BenchmarkId::kUA_B,   BenchmarkId::kUA_C,           BenchmarkId::kWC,
          BenchmarkId::kWR,     BenchmarkId::kKmeans,         BenchmarkId::kMatrixMultiply,
          BenchmarkId::kPca,    BenchmarkId::kWrmem,          BenchmarkId::kSSCA,
          BenchmarkId::kSPECjbb};
}

std::vector<BenchmarkId> AffectedSubset() {
  return {BenchmarkId::kCG_D,  BenchmarkId::kLU_B,           BenchmarkId::kUA_B,
          BenchmarkId::kUA_C,  BenchmarkId::kMatrixMultiply, BenchmarkId::kWrmem,
          BenchmarkId::kSSCA,  BenchmarkId::kSPECjbb};
}

std::vector<BenchmarkId> UnaffectedSubset() {
  return {BenchmarkId::kBT_B, BenchmarkId::kDC_A,   BenchmarkId::kEP_C,
          BenchmarkId::kFT_C, BenchmarkId::kIS_D,   BenchmarkId::kMG_D,
          BenchmarkId::kSP_B, BenchmarkId::kWC,     BenchmarkId::kWR,
          BenchmarkId::kKmeans, BenchmarkId::kPca};
}

}  // namespace numalp
