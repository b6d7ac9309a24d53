// The in-process stand-in for the MapReduce framework the paper implements
// its feature-engineering and LF pipelines on (§6.3). Step A needs only the
// map side: an order-preserving parallel map over a ThreadPool.

#ifndef CROSSMODAL_DATAFLOW_MAPREDUCE_H_
#define CROSSMODAL_DATAFLOW_MAPREDUCE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "util/thread_pool.h"

namespace crossmodal {

/// Deterministic multi-threaded map over in-memory collections: output i
/// is fn(inputs[i]) whatever the thread timing. Concurrent ParallelMap
/// calls share the pool.
class MapReduceExecutor {
 public:
  explicit MapReduceExecutor(size_t num_workers = 4) : pool_(num_workers) {}

  /// Order-preserving parallel map.
  template <typename In, typename Out>
  std::vector<Out> ParallelMap(const std::vector<In>& inputs,
                               const std::function<Out(const In&)>& fn) {
    std::vector<Out> out(inputs.size());
    pool_.ParallelFor(inputs.size(),
                      [&](size_t i) { out[i] = fn(inputs[i]); });
    return out;
  }

 private:
  ThreadPool pool_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_DATAFLOW_MAPREDUCE_H_
