// Allocation-in-slice fixture: per-iteration heap traffic in hot loops.
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex* mu);
};

struct Pool {
  template <typename Fn>
  void ForEachSlice(std::size_t n, std::size_t grain, Fn fn);
};

void Build(Pool& pool, const std::vector<int>& xs, std::vector<int>& out) {
  pool.ForEachSlice(xs.size(), 64, [&](std::size_t begin, std::size_t end) {
    std::vector<int> scratch;
    scratch.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      std::vector<int> locals(4);
      int* node = new int(xs[i]);
      std::string label(static_cast<std::size_t>(4), 'x');
      label += std::to_string(i);
      scratch.push_back(xs[i] + *node + static_cast<int>(label.size()) +
                        static_cast<int>(locals.size()));
      delete node;
      out[i] = scratch.back();
    }
  });
}

void Fill(Pool& pool, const std::vector<std::string>& names) {
  std::unordered_map<std::string, int> index;
  Mutex mu;
  pool.ForEachSlice(names.size(), 32, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      MutexLock lock(&mu);
      index.emplace(names[i], static_cast<int>(i));
      // cmrace: alloc-ok — tail shard only, bounded by protocol
      index.emplace(names[i] + "!", 0);
    }
  });
}

// A reserve() in another function does not provision this slice's buffer.
void Prepare(std::vector<int>& buf) { buf.reserve(64); }

void Grow(Pool& pool, const std::vector<int>& xs, std::vector<int>& out) {
  pool.ForEachSlice(xs.size(), 16, [&](std::size_t begin, std::size_t end) {
    std::vector<int> buf;
    for (std::size_t i = begin; i < end; ++i) {
      buf.push_back(xs[i]);
    }
    out[begin] = buf.back();
  });
}
