#include "graph/batch.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace gradgcl {

namespace {

// One stored entry of a row under construction: its column and its
// D~^{-1/2}(A+I)D~^{-1/2} weight (the A + I weight is always 1).
struct Entry {
  int col;
  double weight;
};

// Rows up to this length (degree + 1) are insertion-sorted; longer hub
// rows use stable_sort so a caller-built star stays O(d log d).
constexpr std::ptrdiff_t kInsertionSortMaxRow = 32;

// Sorts one row by column. Both paths are stable, so duplicate edges
// keep their emission order and their summed weight has fixed bits.
void SortRow(Entry* first, Entry* last) {
  if (last - first > kInsertionSortMaxRow) {
    std::stable_sort(first, last, [](const Entry& a, const Entry& b) {
      return a.col < b.col;
    });
    return;
  }
  for (Entry* i = first + 1; i < last; ++i) {
    const Entry e = *i;
    Entry* j = i;
    for (; j > first && (j - 1)->col > e.col; --j) *j = *(j - 1);
    *j = e;
  }
}

GraphBatch MakeBatchImpl(const std::vector<const Graph*>& graphs) {
  GRADGCL_CHECK_MSG(!graphs.empty(), "cannot batch zero graphs");
  const int feature_dim = graphs[0]->feature_dim();
  int64_t total_nodes = 0;
  // Stored entries before duplicate merging: a self loop per node plus
  // both directions of every edge.
  int64_t total_entries = 0;
  for (const Graph* g : graphs) {
    // Everything below indexes by node id, so a bad endpoint or a short
    // feature matrix must abort here, not write out of bounds.
    ValidateGraph(*g);
    GRADGCL_CHECK_MSG(g->feature_dim() == feature_dim,
                      "feature_dim mismatch across batch");
    total_nodes += g->num_nodes;
    total_entries += g->num_nodes + 2 * static_cast<int64_t>(g->num_edges());
  }
  GRADGCL_CHECK_MSG(total_entries <= std::numeric_limits<int>::max(),
                    "batch too large for int CSR offsets");

  GraphBatch batch;
  batch.num_graphs = static_cast<int>(graphs.size());
  batch.total_nodes = static_cast<int>(total_nodes);
  batch.features = Matrix(batch.total_nodes, feature_dim);
  batch.segments.resize(total_nodes);
  batch.labels.reserve(graphs.size());

  // Both operators share one sparsity pattern, built row by row in
  // canonical CSR order: no triplets, no global sort.
  std::vector<int> row_offsets;
  std::vector<int> col_indices;
  std::vector<double> norm_values;
  std::vector<double> self_values;
  row_offsets.reserve(total_nodes + 1);
  col_indices.reserve(total_entries);
  norm_values.reserve(total_entries);
  self_values.reserve(total_entries);
  row_offsets.push_back(0);

  std::vector<int> deg;
  std::vector<int> row_start;
  std::vector<int> fill;
  std::vector<Entry> entries;
  int offset = 0;
  for (size_t k = 0; k < graphs.size(); ++k) {
    const Graph& g = *graphs[k];
    const int n = g.num_nodes;
    batch.labels.push_back(g.label);
    for (int i = 0; i < n; ++i) {
      batch.segments[offset + i] = static_cast<int>(k);
      for (int j = 0; j < feature_dim; ++j) {
        batch.features(offset + i, j) = g.features(i, j);
      }
    }
    deg.assign(n, 0);
    for (const auto& [u, v] : g.edges) {
      ++deg[u];
      ++deg[v];
    }
    // Row i holds its self loop first, then one entry per incident edge
    // end in edge order.
    row_start.resize(n + 1);
    row_start[0] = 0;
    for (int i = 0; i < n; ++i) row_start[i + 1] = row_start[i] + deg[i] + 1;
    entries.resize(row_start[n]);
    fill.resize(n);
    for (int i = 0; i < n; ++i) {
      entries[row_start[i]] = {offset + i,
                               1.0 / (static_cast<double>(deg[i]) + 1.0)};
      fill[i] = row_start[i] + 1;
    }
    for (const auto& [u, v] : g.edges) {
      const double w =
          1.0 / std::sqrt((deg[u] + 1.0)) / std::sqrt((deg[v] + 1.0));
      entries[fill[u]++] = {offset + v, w};
      entries[fill[v]++] = {offset + u, w};
    }
    // Sort each row and sum duplicate edges into one entry, from 0.0 as
    // the triplet constructor does.
    for (int i = 0; i < n; ++i) {
      Entry* first = entries.data() + row_start[i];
      Entry* last = entries.data() + row_start[i + 1];
      SortRow(first, last);
      while (first < last) {
        const int col = first->col;
        double weight = 0.0;
        double ones = 0.0;
        for (; first < last && first->col == col; ++first) {
          weight += first->weight;
          ones += 1.0;
        }
        col_indices.push_back(col);
        norm_values.push_back(weight);
        self_values.push_back(ones);
      }
      row_offsets.push_back(static_cast<int>(col_indices.size()));
    }
    offset += n;
  }

  batch.norm_adj = SparseMatrix::FromCsr(batch.total_nodes, batch.total_nodes,
                                         row_offsets, col_indices,
                                         std::move(norm_values));
  batch.adj_self = SparseMatrix::FromCsr(
      batch.total_nodes, batch.total_nodes, std::move(row_offsets),
      std::move(col_indices), std::move(self_values));
  return batch;
}

}  // namespace

GraphBatch MakeBatch(const std::vector<Graph>& graphs) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const Graph& g : graphs) ptrs.push_back(&g);
  return MakeBatchImpl(ptrs);
}

GraphBatch MakeBatch(const std::vector<Graph>& graphs,
                     const std::vector<int>& indices) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(indices.size());
  for (int idx : indices) {
    GRADGCL_CHECK(idx >= 0 && idx < static_cast<int>(graphs.size()));
    ptrs.push_back(&graphs[idx]);
  }
  return MakeBatchImpl(ptrs);
}

GraphBatch MakeBatch(const std::vector<const Graph*>& graphs) {
  for (const Graph* g : graphs) GRADGCL_CHECK(g != nullptr);
  return MakeBatchImpl(graphs);
}

}  // namespace gradgcl
