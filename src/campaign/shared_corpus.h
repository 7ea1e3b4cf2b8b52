// Thread-safe shared state for parallel fuzzing campaigns.
//
// Each campaign worker runs its own Fuzzer on its own hardware target;
// the SharedCorpus is the single point where their results meet:
//
//   - a global edge-coverage map (union of every worker's edges),
//   - crash de-duplication by faulting pc ACROSS workers (two workers
//     hitting the same bug yield one finding),
//   - an append-only log of interesting inputs that workers may adopt
//     as mutation parents when the campaign cross-pollinates.
//
// Everything here is aggregation-only by default: merging edges or
// reporting a crash never feeds anything back into a worker, so a
// worker's execution sequence stays a pure function of its derived seed
// and every finding replays single-threaded (see
// docs/parallel_campaigns.md for the determinism contract). Only
// TakeNewInputs — used when FuzzCampaignOptions::share_corpus is on —
// perturbs workers, and doing so deliberately trades seed-level replay
// for input-level replay.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "fuzz/fuzzer.h"

namespace hardsnap::campaign {

// A crash with enough provenance to reproduce it without the campaign:
// re-run a single-threaded Fuzzer with `worker_seed` for `execs_at_find`
// executions (ReplayFinding does exactly that).
struct CampaignFinding {
  fuzz::Crash crash;
  unsigned worker = 0;
  uint64_t worker_seed = 0;
  // Worker-local executions completed at the end of the batch in which
  // the crash surfaced (batch granularity: the crash happened at or
  // before this count).
  uint64_t execs_at_find = 0;
};

// The order findings are kept and reported in: (execs_at_find, worker,
// input, pc). It depends only on what each worker found, never on which
// thread reached the corpus first, so a pc found by several workers is
// credited to the same one in every run.
bool FindingBefore(const CampaignFinding& a, const CampaignFinding& b);

// Add `finding` to `findings` (sorted by FindingBefore, one per pc): a
// new pc is inserted in order; a known pc is replaced when `finding`
// comes before the kept one. Returns true iff the pc was new.
bool MergeFinding(std::vector<CampaignFinding>* findings,
                  CampaignFinding finding);

class SharedCorpus {
 public:
  // Union `edges` into the global coverage map; returns how many were
  // globally new. When `fresh` is non-null it receives exactly the edges
  // that were new (campaign persistence journals these instead of the
  // worker's whole edge set).
  size_t MergeEdges(const std::set<uint64_t>& edges,
                    std::vector<uint64_t>* fresh = nullptr);

  // Offer an input that earned its keep locally (new coverage). Deduped
  // by content; the offering worker never gets its own inputs back from
  // TakeNewInputs.
  void OfferInput(unsigned worker, const std::vector<uint8_t>& input);

  // Record a crash (MergeFinding); returns true iff its faulting pc was
  // globally new.
  bool ReportCrash(CampaignFinding finding);

  // Inputs offered by OTHER workers since this worker's last call.
  // `cursor` is the caller-owned position into the offer log (start at 0).
  std::vector<std::vector<uint8_t>> TakeNewInputs(unsigned worker,
                                                  size_t* cursor) const;

  size_t edges_covered() const;
  size_t corpus_size() const;
  std::vector<CampaignFinding> findings() const;

  // Seed the corpus from a recovered durable image (campaign resume).
  // Replaces the current contents; must be called before workers start.
  // Offer order is preserved and findings are merged by MergeFinding, so
  // a resumed campaign reports the uninterrupted run's findings.
  void Restore(
      const std::set<uint64_t>& edges,
      const std::vector<std::pair<unsigned, std::vector<uint8_t>>>& offers,
      const std::vector<CampaignFinding>& findings);

 private:
  struct Offer {
    unsigned worker;
    std::vector<uint8_t> input;
  };

  mutable std::mutex mu_;
  std::set<uint64_t> edges_;
  std::set<std::vector<uint8_t>> seen_inputs_;
  std::vector<Offer> offers_;
  std::vector<CampaignFinding> findings_;
};

}  // namespace hardsnap::campaign
