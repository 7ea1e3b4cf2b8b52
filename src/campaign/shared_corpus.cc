#include "campaign/shared_corpus.h"

#include <algorithm>
#include <tuple>

namespace hardsnap::campaign {

bool FindingBefore(const CampaignFinding& a, const CampaignFinding& b) {
  return std::tie(a.execs_at_find, a.worker, a.crash.input, a.crash.pc) <
         std::tie(b.execs_at_find, b.worker, b.crash.input, b.crash.pc);
}

bool MergeFinding(std::vector<CampaignFinding>* findings,
                  CampaignFinding finding) {
  auto same_pc = std::find_if(
      findings->begin(), findings->end(),
      [&](const CampaignFinding& f) { return f.crash.pc == finding.crash.pc; });
  const bool fresh = same_pc == findings->end();
  if (!fresh) {
    if (!FindingBefore(finding, *same_pc)) return false;
    findings->erase(same_pc);
  }
  auto at = std::upper_bound(findings->begin(), findings->end(), finding,
                             FindingBefore);
  findings->insert(at, std::move(finding));
  return fresh;
}

size_t SharedCorpus::MergeEdges(const std::set<uint64_t>& edges,
                                std::vector<uint64_t>* fresh) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (uint64_t e : edges) {
    if (!edges_.insert(e).second) continue;
    ++count;
    if (fresh != nullptr) fresh->push_back(e);
  }
  return count;
}

void SharedCorpus::OfferInput(unsigned worker,
                              const std::vector<uint8_t>& input) {
  if (input.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!seen_inputs_.insert(input).second) return;
  offers_.push_back({worker, input});
}

bool SharedCorpus::ReportCrash(CampaignFinding finding) {
  std::lock_guard<std::mutex> lock(mu_);
  return MergeFinding(&findings_, std::move(finding));
}

std::vector<std::vector<uint8_t>> SharedCorpus::TakeNewInputs(
    unsigned worker, size_t* cursor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<uint8_t>> fresh;
  for (; *cursor < offers_.size(); ++*cursor)
    if (offers_[*cursor].worker != worker)
      fresh.push_back(offers_[*cursor].input);
  return fresh;
}

size_t SharedCorpus::edges_covered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_.size();
}

size_t SharedCorpus::corpus_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_inputs_.size();
}

std::vector<CampaignFinding> SharedCorpus::findings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return findings_;
}

void SharedCorpus::Restore(
    const std::set<uint64_t>& edges,
    const std::vector<std::pair<unsigned, std::vector<uint8_t>>>& offers,
    const std::vector<CampaignFinding>& findings) {
  std::lock_guard<std::mutex> lock(mu_);
  edges_ = edges;
  seen_inputs_.clear();
  offers_.clear();
  for (const auto& [worker, input] : offers) {
    if (input.empty()) continue;
    if (!seen_inputs_.insert(input).second) continue;
    offers_.push_back({worker, input});
  }
  findings_.clear();
  for (const CampaignFinding& f : findings) MergeFinding(&findings_, f);
}

}  // namespace hardsnap::campaign
