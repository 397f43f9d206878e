// Mini-batching of graphs by disjoint union, the standard trick for
// graph-level GNN training: node features are stacked, the adjacency
// operator becomes block-diagonal (still sparse), and a segment vector
// maps each node to its source graph for readout.

#ifndef GRADGCL_GRAPH_BATCH_H_
#define GRADGCL_GRAPH_BATCH_H_

#include <vector>

#include "graph/graph.h"

namespace gradgcl {

// A disjoint union of graphs, ready for one GNN forward pass.
struct GraphBatch {
  // Stacked node features, total_nodes x feature_dim.
  Matrix features;
  // Block-diagonal GCN operator D~^{-1/2}(A+I)D~^{-1/2}.
  SparseMatrix norm_adj;
  // Block-diagonal A + I (GIN-style aggregation).
  SparseMatrix adj_self;
  // segments[i] = index of the graph that node i belongs to.
  std::vector<int> segments;
  int num_graphs = 0;
  int total_nodes = 0;
  // Labels of the batched graphs (label of graph k at position k).
  std::vector<int> labels;
};

// Builds the disjoint-union batch. All graphs must share feature_dim
// and pass ValidateGraph (checked; aborts otherwise). Both operators
// are written directly as canonical CSR, row by row, with no triplet
// sort; duplicate edges are summed, as the triplet constructor would.
GraphBatch MakeBatch(const std::vector<Graph>& graphs);

// Builds a batch from the subset graphs[indices[k]].
GraphBatch MakeBatch(const std::vector<Graph>& graphs,
                     const std::vector<int>& indices);

// Builds a batch from non-owning pointers (no nulls). Lets callers that
// gather graphs from several sources (the serving micro-batcher
// coalescing concurrent requests) batch without copying each Graph.
GraphBatch MakeBatch(const std::vector<const Graph*>& graphs);

}  // namespace gradgcl

#endif  // GRADGCL_GRAPH_BATCH_H_
