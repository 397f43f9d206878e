#include "graph/graph.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "augment/augment.h"
#include "datasets/tu_synthetic.h"
#include "graph/batch.h"
#include "graph/diffusion.h"
#include "graph/stats.h"
#include "tensor/ops.h"

namespace gradgcl {
namespace {

// Path graph 0-1-2-3 with 2-dim features = node index.
Graph PathGraph(int n = 4) {
  Graph g;
  g.num_nodes = n;
  for (int i = 0; i + 1 < n; ++i) g.edges.emplace_back(i, i + 1);
  g.features = Matrix(n, 2);
  for (int i = 0; i < n; ++i) {
    g.features(i, 0) = i;
    g.features(i, 1) = 1.0;
  }
  g.label = 0;
  return g;
}

Graph TriangleGraph() {
  Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}, {0, 2}};
  g.features = Matrix::Ones(3, 2);
  g.label = 1;
  return g;
}

TEST(GraphTest, ValidateAcceptsWellFormed) {
  ValidateGraph(PathGraph());
  ValidateGraph(TriangleGraph());
}

TEST(GraphDeathTest, ValidateRejectsBadGraphs) {
  Graph g = PathGraph();
  g.edges.emplace_back(0, 7);
  EXPECT_DEATH(ValidateGraph(g), "out of range");
  Graph h = PathGraph();
  h.edges.emplace_back(1, 1);
  EXPECT_DEATH(ValidateGraph(h), "self loop");
  Graph f = PathGraph();
  f.features = Matrix(2, 2, 0.0);
  EXPECT_DEATH(ValidateGraph(f), "num_nodes");
}

TEST(GraphTest, DegreesOfPath) {
  const std::vector<int> deg = Degrees(PathGraph());
  EXPECT_EQ(deg, (std::vector<int>{1, 2, 2, 1}));
}

TEST(GraphTest, CsrNeighborsComplete) {
  const CsrAdjacency csr = BuildCsr(PathGraph());
  EXPECT_EQ(csr.neighbors.size(), 6u);  // 2 * 3 edges
  // Node 1's neighbours are {0, 2}.
  std::vector<int> n1(csr.neighbors.begin() + csr.offsets[1],
                      csr.neighbors.begin() + csr.offsets[2]);
  std::sort(n1.begin(), n1.end());
  EXPECT_EQ(n1, (std::vector<int>{0, 2}));
}

TEST(GraphTest, NormalizedAdjacencySymmetricRows) {
  const Graph g = TriangleGraph();
  const Matrix a_hat = NormalizedAdjacency(g).ToDense();
  // All nodes have degree 2 -> D~ = 3I; every entry of the triangle
  // block is 1/3.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(a_hat(i, j), 1.0 / 3.0, 1e-12);
    }
  }
}

TEST(GraphTest, NormalizedAdjacencyEigenvalueBound) {
  // The spectral radius of D~^{-1/2}(A+I)D~^{-1/2} is exactly 1.
  const Graph g = PathGraph(6);
  const Matrix a_hat = NormalizedAdjacency(g).ToDense();
  Matrix x = Matrix::Ones(6, 1);
  // Power iteration.
  for (int it = 0; it < 200; ++it) {
    x = MatMul(a_hat, x);
    x *= 1.0 / x.FrobeniusNorm();
  }
  const Matrix ax = MatMul(a_hat, x);
  double lambda = 0.0;
  for (int i = 0; i < 6; ++i) lambda += ax(i, 0) * x(i, 0);
  EXPECT_NEAR(lambda, 1.0, 1e-6);
}

TEST(GraphTest, AdjacencyVariants) {
  const Graph g = PathGraph(3);
  EXPECT_TRUE(AllClose(Adjacency(g).ToDense(),
                       Matrix{{0, 1, 0}, {1, 0, 1}, {0, 1, 0}}));
  EXPECT_TRUE(AllClose(AdjacencyWithSelfLoops(g).ToDense(),
                       Matrix{{1, 1, 0}, {1, 1, 1}, {0, 1, 1}}));
}

TEST(GraphTest, HasEdgeBothDirections) {
  const Graph g = PathGraph();
  EXPECT_TRUE(HasEdge(g, 0, 1));
  EXPECT_TRUE(HasEdge(g, 1, 0));
  EXPECT_FALSE(HasEdge(g, 0, 2));
}

TEST(GraphTest, ConnectedComponents) {
  EXPECT_EQ(CountConnectedComponents(PathGraph()), 1);
  Graph g = PathGraph(5);
  g.edges.clear();
  g.edges.emplace_back(0, 1);  // {0,1} {2} {3} {4}
  EXPECT_EQ(CountConnectedComponents(g), 4);
}

TEST(GraphTest, InducedSubgraphRemaps) {
  const Graph g = PathGraph(4);
  const Graph sub = InducedSubgraph(g, {1, 2});
  EXPECT_EQ(sub.num_nodes, 2);
  ASSERT_EQ(sub.edges.size(), 1u);
  EXPECT_TRUE(HasEdge(sub, 0, 1));
  EXPECT_DOUBLE_EQ(sub.features(0, 0), 1.0);  // old node 1
  EXPECT_DOUBLE_EQ(sub.features(1, 0), 2.0);  // old node 2
  EXPECT_EQ(sub.label, g.label);
}

TEST(GraphTest, InducedSubgraphDropsCrossEdges) {
  const Graph g = PathGraph(4);
  const Graph sub = InducedSubgraph(g, {0, 2});  // nodes not adjacent
  EXPECT_EQ(sub.num_nodes, 2);
  EXPECT_TRUE(sub.edges.empty());
}

// --- Batching ----------------------------------------------------------------

TEST(BatchTest, DisjointUnionShapes) {
  const std::vector<Graph> graphs = {PathGraph(4), TriangleGraph()};
  const GraphBatch batch = MakeBatch(graphs);
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.total_nodes, 7);
  EXPECT_EQ(batch.features.rows(), 7);
  EXPECT_EQ(batch.segments,
            (std::vector<int>{0, 0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(batch.labels, (std::vector<int>{0, 1}));
}

TEST(BatchTest, BlockDiagonalNoCrossEdges) {
  const std::vector<Graph> graphs = {PathGraph(4), TriangleGraph()};
  const Matrix adj = MakeBatch(graphs).adj_self.ToDense();
  // No entry may connect the two blocks.
  for (int i = 0; i < 4; ++i) {
    for (int j = 4; j < 7; ++j) {
      EXPECT_DOUBLE_EQ(adj(i, j), 0.0);
      EXPECT_DOUBLE_EQ(adj(j, i), 0.0);
    }
  }
}

TEST(BatchTest, NormAdjMatchesPerGraphOperator) {
  const std::vector<Graph> graphs = {TriangleGraph(), PathGraph(3)};
  const Matrix batched = MakeBatch(graphs).norm_adj.ToDense();
  const Matrix g0 = NormalizedAdjacency(graphs[0]).ToDense();
  const Matrix g1 = NormalizedAdjacency(graphs[1]).ToDense();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(batched(i, j), g0(i, j), 1e-12);
      EXPECT_NEAR(batched(3 + i, 3 + j), g1(i, j), 1e-12);
    }
  }
}

TEST(BatchTest, IndexSubsetSelection) {
  const std::vector<Graph> graphs = {PathGraph(4), TriangleGraph(),
                                     PathGraph(2)};
  const GraphBatch batch = MakeBatch(graphs, {2, 0});
  EXPECT_EQ(batch.num_graphs, 2);
  EXPECT_EQ(batch.total_nodes, 6);
  EXPECT_EQ(batch.labels[0], graphs[2].label);
}

TEST(BatchDeathTest, EmptyBatchAborts) {
  std::vector<Graph> empty;
  EXPECT_DEATH(MakeBatch(empty), "zero graphs");
}

// MakeBatch indexes degrees, rows and features by node id, so every
// ValidateGraph invariant must abort before the first write.
TEST(BatchDeathTest, InvalidGraphAborts) {
  Graph far = PathGraph();
  far.edges.emplace_back(0, 7);
  EXPECT_DEATH(MakeBatch({TriangleGraph(), far}), "out of range");
  Graph negative = PathGraph();
  negative.edges.emplace_back(-1, 2);
  EXPECT_DEATH(MakeBatch({negative}), "out of range");
  Graph loop = PathGraph();
  loop.edges.emplace_back(1, 1);
  EXPECT_DEATH(MakeBatch({loop}), "self loop");
  Graph short_features = PathGraph();
  short_features.features = Matrix(2, 2, 0.0);
  EXPECT_DEATH(MakeBatch({short_features}), "num_nodes");
}

// The operators as MakeBatch emitted them before it built CSR directly:
// a self loop per node, then both directions of every edge, through the
// sorting triplet constructor. Kept as the byte-level reference.
void TripletReference(const std::vector<Graph>& graphs, SparseMatrix* norm_adj,
                      SparseMatrix* adj_self) {
  std::vector<Triplet> norm_triplets;
  std::vector<Triplet> self_triplets;
  int offset = 0;
  for (const Graph& g : graphs) {
    std::vector<int> deg(g.num_nodes, 0);
    for (const auto& [u, v] : g.edges) {
      ++deg[u];
      ++deg[v];
    }
    for (int i = 0; i < g.num_nodes; ++i) {
      const double inv = 1.0 / (static_cast<double>(deg[i]) + 1.0);
      norm_triplets.push_back({offset + i, offset + i, inv});
      self_triplets.push_back({offset + i, offset + i, 1.0});
    }
    for (const auto& [u, v] : g.edges) {
      const double w =
          1.0 / std::sqrt((deg[u] + 1.0)) / std::sqrt((deg[v] + 1.0));
      norm_triplets.push_back({offset + u, offset + v, w});
      norm_triplets.push_back({offset + v, offset + u, w});
      self_triplets.push_back({offset + u, offset + v, 1.0});
      self_triplets.push_back({offset + v, offset + u, 1.0});
    }
    offset += g.num_nodes;
  }
  *norm_adj = SparseMatrix(offset, offset, std::move(norm_triplets));
  *adj_self = SparseMatrix(offset, offset, std::move(self_triplets));
}

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameCsr(const SparseMatrix& got, const SparseMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(SameBytes(got.row_offsets(), want.row_offsets()));
  EXPECT_TRUE(SameBytes(got.col_indices(), want.col_indices()));
  EXPECT_TRUE(SameBytes(got.values(), want.values()));
}

void ExpectBatchMatchesTriplets(const std::vector<Graph>& graphs) {
  const GraphBatch batch = MakeBatch(graphs);
  SparseMatrix norm_adj;
  SparseMatrix adj_self;
  TripletReference(graphs, &norm_adj, &adj_self);
  ExpectSameCsr(batch.norm_adj, norm_adj);
  ExpectSameCsr(batch.adj_self, adj_self);
}

Graph EdgelessGraph(int n) {
  Graph g;
  g.num_nodes = n;
  g.features = Matrix::Ones(n, 2);
  return g;
}

// Hub 0 joined to `leaves` nodes, edges listed leaf-descending so the
// hub row arrives reversed (and longer than an insertion-sorted row).
Graph StarGraph(int leaves) {
  Graph g = EdgelessGraph(leaves + 1);
  for (int i = leaves; i >= 1; --i) g.edges.emplace_back(i, 0);
  return g;
}

TEST(BatchTest, CsrBytesMatchTripletReference) {
  TuProfile profile = TuProfileByName("PROTEINS");
  profile.num_graphs = 48;
  const std::vector<Graph> data = GenerateTuDataset(profile, 17);
  Rng rng(23);
  for (AugmentKind kind : AllAugmentKinds()) {
    SCOPED_TRACE(AugmentKindName(kind));
    std::vector<Graph> views;
    for (const Graph& g : data) views.push_back(Augment(g, kind, 0.2, rng));
    ExpectBatchMatchesTriplets(views);
  }
  ExpectBatchMatchesTriplets({EdgelessGraph(1)});
  ExpectBatchMatchesTriplets({EdgelessGraph(1), PathGraph(), EdgelessGraph(4)});
  ExpectBatchMatchesTriplets({StarGraph(40), TriangleGraph()});
  // Duplicate edges sum: (0, 1) twice, (1, 2) once per direction, and
  // (3, 4) three times.
  Graph dup = PathGraph(5);
  dup.edges.emplace_back(0, 1);
  dup.edges.emplace_back(2, 1);
  dup.edges.emplace_back(3, 4);
  dup.edges.emplace_back(3, 4);
  ExpectBatchMatchesTriplets({TriangleGraph(), dup});
}

// --- Diffusion ----------------------------------------------------------------

TEST(DiffusionTest, PprRowsSumToOne) {
  // Â is doubly stochastic-like only in special cases, but PPR rows of
  // S = α(I − (1−α)Â)^{-1} sum to α Σ_k (1−α)^k (row sums of Â^k)... for
  // the triangle, Â is exactly doubly stochastic, so row sums are 1.
  const Matrix s = PprDiffusion(TriangleGraph(), 0.2);
  for (int i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 3; ++j) sum += s(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DiffusionTest, PprDiagonalDominant) {
  const Matrix s = PprDiffusion(PathGraph(5), 0.2);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_GT(s(i, i), s(i, j));
      }
    }
  }
}

TEST(DiffusionTest, HigherAlphaMoreLocal) {
  const Matrix s_local = PprDiffusion(PathGraph(6), 0.8);
  const Matrix s_global = PprDiffusion(PathGraph(6), 0.1);
  // Mass on distant pairs grows as alpha shrinks.
  EXPECT_GT(s_global(0, 5), s_local(0, 5));
}

TEST(DiffusionTest, SparsifyKeepsDiagonalAndNormalises) {
  const Matrix s = PprDiffusion(PathGraph(6), 0.2);
  const SparseMatrix sp = SparsifyDiffusion(s, 0.05);
  const Matrix d = sp.ToDense();
  for (int i = 0; i < 6; ++i) {
    EXPECT_GT(d(i, i), 0.0);
    double sum = 0.0;
    for (int j = 0; j < 6; ++j) sum += d(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// --- Stats ----------------------------------------------------------------------

TEST(StatsTest, ComputeStatsAggregates) {
  const std::vector<Graph> graphs = {PathGraph(4), TriangleGraph()};
  const DatasetStats stats = ComputeStats(graphs);
  EXPECT_EQ(stats.num_graphs, 2);
  EXPECT_EQ(stats.num_classes, 2);
  EXPECT_DOUBLE_EQ(stats.avg_nodes, 3.5);
  EXPECT_DOUBLE_EQ(stats.avg_edges, 3.0);
  EXPECT_EQ(stats.feature_dim, 2);
}

TEST(StatsTest, EmptyDatasetIsZero) {
  const DatasetStats stats = ComputeStats({});
  EXPECT_EQ(stats.num_graphs, 0);
  EXPECT_EQ(stats.num_classes, 0);
}

TEST(StatsTest, FormatRowContainsNameAndCounts) {
  const DatasetStats stats = ComputeStats({PathGraph(4)});
  const std::string row = FormatStatsRow("MUTAG", "Biochemical", stats);
  EXPECT_NE(row.find("MUTAG"), std::string::npos);
  EXPECT_NE(row.find("Biochemical"), std::string::npos);
}

}  // namespace
}  // namespace gradgcl
