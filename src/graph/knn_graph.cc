#include "graph/knn_graph.h"

#include <algorithm>

#include "util/check.h"

namespace crossmodal {

size_t SimilarityGraph::num_edges() const {
  size_t total = 0;
  for (const auto& nbrs : adjacency) total += nbrs.size();
  return total / 2;
}

double SimilarityGraph::AverageDegree() const {
  if (nodes.empty()) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(nodes.size());
}

Result<SimilarityGraph> BuildKnnGraph(const std::vector<EntityId>& entities,
                                      const FeatureStore& store,
                                      const FeatureSimilarity& similarity,
                                      const KnnGraphOptions& options) {
  const size_t n = entities.size();
  SimilarityGraph graph;
  graph.nodes = entities;
  graph.adjacency.assign(n, {});
  if (n == 0) return graph;

  // ---- Compile the rows' graph features once into the flat layout that
  // both the blocking pass and the exact scoring read.
  std::vector<const FeatureVector*> rows(n);
  for (size_t i = 0; i < n; ++i) {
    CM_ASSIGN_OR_RETURN(rows[i], store.Get(entities[i]));
  }
  const CompiledRows compiled = similarity.Compile(rows);

  // ---- Blocking pass: CSR postings, item number -> ascending node ids. ----
  std::vector<uint32_t> posting_begin(compiled.num_items() + 1, 0);
  size_t max_row_items = 0;
  for (size_t i = 0; i < n; ++i) {
    for (const uint32_t* it = compiled.items_begin(i);
         it != compiled.items_end(i); ++it) {
      ++posting_begin[*it + 1];
    }
    max_row_items = std::max<size_t>(
        max_row_items, compiled.items_end(i) - compiled.items_begin(i));
  }
  for (size_t item = 0; item < compiled.num_items(); ++item) {
    posting_begin[item + 1] += posting_begin[item];
  }
  std::vector<uint32_t> postings(posting_begin.back());
  {
    std::vector<uint32_t> fill(posting_begin.begin(), posting_begin.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      for (const uint32_t* it = compiled.items_begin(i);
           it != compiled.items_end(i); ++it) {
        postings[fill[*it]++] = static_cast<uint32_t>(i);
      }
    }
  }
  const size_t stop_threshold = std::max<size_t>(
      8, static_cast<size_t>(options.stop_item_fraction * n));
  // A shared count is at most the node's item count times the most times
  // one item repeats in a row, which is how often its feature id repeats
  // in features(); the count buckets are sized to that bound.
  const std::vector<FeatureId>& features = similarity.features();
  size_t max_repeat = 0;
  for (FeatureId f : features) {
    max_repeat = std::max<size_t>(
        max_repeat, std::count(features.begin(), features.end(), f));
  }
  const size_t max_shared = max_row_items * max_repeat;

  // Top-k edge selection per node.
  std::vector<std::vector<std::pair<float, uint32_t>>> best(n);

  // Per-node selection only reads shared state (the compiled rows and the
  // postings) and writes its own best[i] slot, so nodes are sliced across
  // workers. Each node's random candidates come from a seed derived from
  // the node index — not a shared stream — so the graph is bit-identical
  // for every thread count.
  StagePool pool(options.parallel);
  constexpr size_t kSlices = 32;
  const size_t max_candidates = options.max_candidates;
  ForEachSlice(pool.get(), n, kSlices, [&](size_t, size_t begin, size_t end) {
    // Slice-owned scratch, allocated once per slice and reused across
    // nodes: shared-item counts, the touched nodes and their counts, one
    // bucket per count, the ties at the cut, the candidate set, and the
    // scoring buffer. Capacity is provisioned up front so the per-node
    // loop performs no heap traffic (cmrace: alloc-in-slice).
    std::vector<uint32_t> shared_count(n, 0);
    std::vector<uint32_t> touched(n, 0);
    std::vector<uint32_t> touched_count(n, 0);
    std::vector<uint32_t> count_nodes(max_shared + 1, 0);
    std::vector<uint32_t> ties(n, 0);
    std::vector<uint32_t> candidates;
    candidates.reserve(n);
    std::vector<std::pair<float, uint32_t>> scored;
    scored.reserve(n);
    for (size_t i = begin; i < end; ++i) {
      // Count the items each other node shares with i. Every posting is
      // written to the touched list, which only advances on a node's first
      // visit; a nonzero count on i itself keeps i out of the list.
      size_t num_touched = 0;
      shared_count[i] = 1;
      for (const uint32_t* it = compiled.items_begin(i);
           it != compiled.items_end(i); ++it) {
        const uint32_t* list = postings.data() + posting_begin[*it];
        const uint32_t* list_end = postings.data() + posting_begin[*it + 1];
        if (static_cast<size_t>(list_end - list) > stop_threshold) {
          continue;  // stop-item
        }
        for (; list != list_end; ++list) {
          const uint32_t j = *list;
          touched[num_touched] = j;
          num_touched += shared_count[j] == 0;
          ++shared_count[j];
        }
      }
      shared_count[i] = 0;
      // Keep the max_candidates most-overlapping candidates, ties broken by
      // ascending node index, plus random ones. Count buckets find the cut
      // count: every node above the cut is kept, and the smallest indices
      // among the nodes at exactly the cut fill the rest. That is the set
      // the strict (count descending, index ascending) order would pick.
      candidates.clear();
      if (num_touched <= max_candidates) {
        for (size_t t = 0; t < num_touched; ++t) {
          candidates.push_back(touched[t]);
          shared_count[touched[t]] = 0;  // reset scratch
        }
      } else {
        // One pass over the scratch: move each count into a list parallel
        // to touched (resetting the scratch) and bucket it.
        uint32_t top = 0;
        for (size_t t = 0; t < num_touched; ++t) {
          const uint32_t c = shared_count[touched[t]];
          shared_count[touched[t]] = 0;
          touched_count[t] = c;
          CM_DCHECK_LE(c, max_shared);
          ++count_nodes[c];
          top = std::max(top, c);
        }
        uint32_t cut = top;
        size_t above = 0;
        while (above + count_nodes[cut] < max_candidates) {
          above += count_nodes[cut];
          --cut;
        }
        std::fill(count_nodes.begin(), count_nodes.begin() + top + 1, 0);
        // Compact the nodes above the cut to the front of touched and
        // collect the ties, without branching on the counts.
        size_t num_above = 0;
        size_t num_ties = 0;
        for (size_t t = 0; t < num_touched; ++t) {
          const uint32_t j = touched[t];
          touched[num_above] = j;
          num_above += touched_count[t] > cut;
          ties[num_ties] = j;
          num_ties += touched_count[t] == cut;
        }
        candidates.assign(touched.begin(), touched.begin() + num_above);
        const auto keep =
            ties.begin() + static_cast<std::ptrdiff_t>(max_candidates - above);
        std::nth_element(ties.begin(), keep, ties.begin() + num_ties);
        candidates.insert(candidates.end(), ties.begin(), keep);
      }
      Rng rng(DeriveSeed(options.seed, static_cast<uint64_t>(i)));
      for (size_t r = 0; r < options.random_candidates && n > 1; ++r) {
        const uint32_t j = static_cast<uint32_t>(rng.UniformInt(n));
        if (j != i) candidates.push_back(j);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      // Exact Algorithm-1 weights; keep top-k above the floor. Scoring
      // happens in slice-owned scratch so best[i] is allocated exactly
      // once, at its final (pruned) size.
      scored.clear();
      for (uint32_t j : candidates) {
        const double w = similarity.Weight(compiled, i, j);
        if (w < options.min_weight) continue;
        scored.emplace_back(static_cast<float>(w), j);
      }
      const size_t k = static_cast<size_t>(options.k);
      if (scored.size() > k) {
        std::nth_element(scored.begin(),
                         scored.begin() + static_cast<std::ptrdiff_t>(k),
                         scored.end(),
                         [](const std::pair<float, uint32_t>& a,
                            const std::pair<float, uint32_t>& b) {
                           // Weight descending, equal-weight ties broken by
                           // ascending node index (a strict total order, so
                           // the kept top-k set is uniquely determined).
                           if (a.first != b.first) return a.first > b.first;
                           return a.second < b.second;
                         });
        scored.resize(k);
      }
      best[i].assign(scored.begin(), scored.end());
    }
  });

  // Symmetrize: union of both directions, each list sized up front.
  std::vector<size_t> degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    degree[i] += best[i].size();
    for (const auto& entry : best[i]) ++degree[entry.second];
  }
  for (size_t i = 0; i < n; ++i) graph.adjacency[i].reserve(degree[i]);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [w, j] : best[i]) {
      CM_DCHECK_LT(j, n);
      CM_DCHECK_NE(static_cast<size_t>(j), i);
      graph.adjacency[i].emplace_back(j, w);
      graph.adjacency[j].emplace_back(static_cast<uint32_t>(i), w);
    }
  }
  for (auto& nbrs : graph.adjacency) {
    std::sort(nbrs.begin(), nbrs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Deduplicate in place, keeping the max weight per neighbor.
    size_t kept = 0;
    for (const auto& e : nbrs) {
      if (kept > 0 && nbrs[kept - 1].first == e.first) {
        nbrs[kept - 1].second = std::max(nbrs[kept - 1].second, e.second);
      } else {
        nbrs[kept++] = e;
      }
    }
    nbrs.resize(kept);
  }
  return graph;
}

}  // namespace crossmodal
