#include "symex/searcher.h"

#include <map>

#include <algorithm>

namespace hardsnap::symex {

const char* SearchStrategyName(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::kDfs: return "dfs";
    case SearchStrategy::kBfs: return "bfs";
    case SearchStrategy::kRandom: return "random";
    case SearchStrategy::kCoverage: return "coverage";
  }
  return "?";
}

namespace {

// Common interrupt-atomicity guard: while the previous state is live and
// inside an interrupt handler, stick with it.
bool MustKeepPrevious(const State* previous) {
  return previous != nullptr && previous->status == StateStatus::kRunning &&
         previous->csr.in_interrupt;
}

class DfsSearcher : public Searcher {
 public:
  void Add(State* s) override { stack_.push_back(s); }
  void Remove(State* s) override {
    stack_.erase(std::remove(stack_.begin(), stack_.end(), s), stack_.end());
  }
  bool Empty() const override { return stack_.empty(); }
  State* SelectNext(const State* previous) override {
    if (MustKeepPrevious(previous)) return const_cast<State*>(previous);
    return stack_.back();
  }

 private:
  std::vector<State*> stack_;
};

class BfsSearcher : public Searcher {
 public:
  void Add(State* s) override { queue_.push_back(s); }
  void Remove(State* s) override {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), s), queue_.end());
  }
  bool Empty() const override { return queue_.empty(); }
  State* SelectNext(const State* previous) override {
    if (MustKeepPrevious(previous)) return const_cast<State*>(previous);
    // Rotate: take the front, move it to the back so siblings interleave.
    State* s = queue_.front();
    queue_.pop_front();
    queue_.push_back(s);
    return s;
  }

 private:
  std::deque<State*> queue_;
};

class RandomSearcher : public Searcher {
 public:
  explicit RandomSearcher(uint64_t seed) : rng_(seed) {}
  void Add(State* s) override { states_.push_back(s); }
  void Remove(State* s) override {
    states_.erase(std::remove(states_.begin(), states_.end(), s),
                  states_.end());
  }
  bool Empty() const override { return states_.empty(); }
  State* SelectNext(const State* previous) override {
    if (MustKeepPrevious(previous)) return const_cast<State*>(previous);
    return states_[rng_.Below(states_.size())];
  }

 private:
  Rng rng_;
  std::vector<State*> states_;
};

// Coverage-greedy: prefer the state whose pc has been selected least
// often — a simple new-code-first heuristic (KLEE's coverage searchers'
// spirit). Ties break towards the shallowest state to keep path depth
// balanced.
class CoverageSearcher : public Searcher {
 public:
  void Add(State* s) override { states_.push_back(s); }
  void Remove(State* s) override {
    states_.erase(std::remove(states_.begin(), states_.end(), s),
                  states_.end());
  }
  bool Empty() const override { return states_.empty(); }
  State* SelectNext(const State* previous) override {
    if (MustKeepPrevious(previous)) return const_cast<State*>(previous);
    State* best = states_.front();
    uint64_t best_count = pc_count_[best->pc];
    for (State* s : states_) {
      const uint64_t count = pc_count_[s->pc];
      if (count < best_count ||
          (count == best_count && s->depth < best->depth)) {
        best = s;
        best_count = count;
      }
    }
    ++pc_count_[best->pc];
    return best;
  }

 private:
  std::vector<State*> states_;
  std::map<uint32_t, uint64_t> pc_count_;
};

}  // namespace

std::unique_ptr<Searcher> MakeSearcher(SearchStrategy strategy,
                                       uint64_t seed) {
  switch (strategy) {
    case SearchStrategy::kDfs: return std::make_unique<DfsSearcher>();
    case SearchStrategy::kBfs: return std::make_unique<BfsSearcher>();
    case SearchStrategy::kRandom:
      return std::make_unique<RandomSearcher>(seed);
    case SearchStrategy::kCoverage:
      return std::make_unique<CoverageSearcher>();
  }
  return nullptr;
}

}  // namespace hardsnap::symex
