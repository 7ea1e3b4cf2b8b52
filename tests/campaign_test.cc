#include <gtest/gtest.h>

#include <set>

#include "campaign/campaign.h"
#include "campaign/shared_corpus.h"
#include "campaign/symex_campaign.h"
#include "common/rng.h"
#include "core/session.h"
#include "firmware/corpus.h"
#include "fuzz/fuzzer.h"
#include "periph/periph.h"
#include "rtl/elaborate.h"
#include "vm/assembler.h"
#include "vm/memmap.h"

namespace hardsnap::campaign {
namespace {

rtl::Design& Soc() {
  static rtl::Design* d = [] {
    auto r = rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()),
                                 "soc");
    HS_CHECK_MSG(r.ok(), r.status().ToString());
    return new rtl::Design(std::move(r).value());
  }();
  return *d;
}

vm::FirmwareImage ParserImage() {
  auto img = vm::Assemble(firmware::VulnerableParserFirmware());
  EXPECT_TRUE(img.ok());
  return img.value_or(vm::FirmwareImage{});
}

FuzzCampaignOptions ParserOptions(unsigned workers, uint64_t execs = 800) {
  FuzzCampaignOptions opts;
  opts.workers = workers;
  opts.total_execs = execs;
  opts.seed = 2026;
  opts.fuzz.input_size = 2;
  return opts;
}

// --- SharedCorpus ----------------------------------------------------------

TEST(SharedCorpusTest, MergeEdgesCountsOnlyGloballyNew) {
  SharedCorpus shared;
  EXPECT_EQ(shared.MergeEdges({1, 2, 3}), 3u);
  EXPECT_EQ(shared.MergeEdges({2, 3, 4}), 1u);
  EXPECT_EQ(shared.edges_covered(), 4u);
}

TEST(SharedCorpusTest, CrashesDeduplicatedAcrossWorkers) {
  SharedCorpus shared;
  CampaignFinding a;
  a.crash.pc = 0x2c;
  a.worker = 0;
  CampaignFinding b;
  b.crash.pc = 0x2c;
  b.worker = 3;  // same bug found by another worker
  CampaignFinding c;
  c.crash.pc = 0x40;
  EXPECT_TRUE(shared.ReportCrash(a));
  EXPECT_FALSE(shared.ReportCrash(b));
  EXPECT_TRUE(shared.ReportCrash(c));
  ASSERT_EQ(shared.findings().size(), 2u);
  EXPECT_EQ(shared.findings()[0].worker, 0u);
}

TEST(SharedCorpusTest, CreditDoesNotDependOnArrivalOrder) {
  CampaignFinding late;
  late.crash.pc = 0x2c;
  late.worker = 0;
  late.execs_at_find = 128;
  CampaignFinding early = late;
  early.worker = 1;
  early.execs_at_find = 64;
  CampaignFinding other;
  other.crash.pc = 0x40;
  other.execs_at_find = 96;

  SharedCorpus forward, backward;
  EXPECT_TRUE(forward.ReportCrash(late));
  EXPECT_FALSE(forward.ReportCrash(early));
  EXPECT_TRUE(forward.ReportCrash(other));
  EXPECT_TRUE(backward.ReportCrash(other));
  EXPECT_TRUE(backward.ReportCrash(early));
  EXPECT_FALSE(backward.ReportCrash(late));
  for (const SharedCorpus* shared : {&forward, &backward}) {
    const auto findings = shared->findings();
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].worker, 1u);  // earliest by execs_at_find
    EXPECT_EQ(findings[0].execs_at_find, 64u);
    EXPECT_EQ(findings[1].crash.pc, 0x40u);
  }
}

TEST(SharedCorpusTest, WorkersNeverTakeTheirOwnOffers) {
  SharedCorpus shared;
  shared.OfferInput(0, {1, 2});
  shared.OfferInput(1, {3, 4});
  shared.OfferInput(0, {1, 2});  // duplicate content: dropped
  size_t cursor0 = 0, cursor1 = 0;
  auto for0 = shared.TakeNewInputs(0, &cursor0);
  ASSERT_EQ(for0.size(), 1u);
  EXPECT_EQ(for0[0], (std::vector<uint8_t>{3, 4}));
  auto for1 = shared.TakeNewInputs(1, &cursor1);
  ASSERT_EQ(for1.size(), 1u);
  EXPECT_EQ(for1[0], (std::vector<uint8_t>{1, 2}));
  // Cursors advanced: nothing new on a second take.
  EXPECT_TRUE(shared.TakeNewInputs(0, &cursor0).empty());
}

// --- campaign end-to-end ---------------------------------------------------

TEST(FuzzCampaignTest, ParallelWorkersFindTheOverflow) {
  FuzzCampaign campaign(Soc(), ParserImage(), ParserOptions(4));
  auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().execs, 800u);
  ASSERT_GE(report.value().unique_crashes, 1u);
  EXPECT_EQ(report.value().findings[0].crash.reason, "out-of-bounds store");
  EXPECT_EQ(report.value().per_worker.size(), 4u);
  // N devices in parallel: campaign time is the max, serial the sum.
  EXPECT_LT(report.value().modeled_campaign_time.picos(),
            report.value().modeled_serial_time.picos());
  EXPECT_GT(report.value().modeled_speedup, 2.0);
}

TEST(FuzzCampaignTest, SameSeedSameResults) {
  auto run = [] {
    FuzzCampaign campaign(Soc(), ParserImage(), ParserOptions(3));
    auto report = campaign.Run();
    EXPECT_TRUE(report.ok());
    return std::move(report).value();
  };
  CampaignReport a = run();
  CampaignReport b = run();
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.edges_covered, b.edges_covered);
  EXPECT_EQ(a.unique_crashes, b.unique_crashes);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].crash.pc, b.findings[i].crash.pc);
    EXPECT_EQ(a.findings[i].crash.input, b.findings[i].crash.input);
    EXPECT_EQ(a.findings[i].worker_seed, b.findings[i].worker_seed);
  }
}

// The determinism contract: every finding of an N-worker campaign names
// a derived seed + exec count that reproduce the crash in a plain
// single-threaded Fuzzer.
TEST(FuzzCampaignTest, FindingsReplaySingleThreaded) {
  const auto opts = ParserOptions(4);
  FuzzCampaign campaign(Soc(), ParserImage(), opts);
  auto report = campaign.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report.value().findings.size(), 1u);
  for (const auto& finding : report.value().findings) {
    auto replay = ReplayFinding(Soc(), ParserImage(), opts, finding);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay.value().pc, finding.crash.pc);
    EXPECT_EQ(replay.value().input, finding.crash.input);
  }
}

TEST(FuzzCampaignTest, WorkerCountDoesNotChangeWhatIsFound) {
  auto crash_pcs = [](unsigned workers) {
    FuzzCampaign campaign(Soc(), ParserImage(), ParserOptions(workers));
    auto report = campaign.Run();
    EXPECT_TRUE(report.ok());
    std::set<uint32_t> pcs;
    for (const auto& f : report.value().findings) pcs.insert(f.crash.pc);
    return pcs;
  };
  // Same budget, same total coverage target: the parser's one overflow
  // must surface regardless of sharding.
  EXPECT_EQ(crash_pcs(1), crash_pcs(4));
}

TEST(FuzzCampaignTest, SharedCorpusModeRunsButForbidsSeedReplay) {
  auto opts = ParserOptions(3);
  opts.share_corpus = true;
  FuzzCampaign campaign(Soc(), ParserImage(), opts);
  auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report.value().findings.size(), 1u);
  auto replay =
      ReplayFinding(Soc(), ParserImage(), opts, report.value().findings[0]);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FuzzCampaignTest, StopOnFirstCrashEndsEarly) {
  auto opts = ParserOptions(2, 100000);  // far more budget than needed
  opts.stop_on_first_crash = true;
  FuzzCampaign campaign(Soc(), ParserImage(), opts);
  auto report = campaign.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report.value().unique_crashes, 1u);
  EXPECT_LT(report.value().execs, opts.total_execs);
}

// --- option validation (regression: zero-size inputs used to reach
// Rng::Below(0) — undefined behaviour — inside Mutate) -----------------------

TEST(FuzzCampaignTest, ZeroInputSizeIsAnErrorNotACrash) {
  auto opts = ParserOptions(2);
  opts.fuzz.input_size = 0;
  FuzzCampaign campaign(Soc(), ParserImage(), opts);
  auto report = campaign.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(FuzzCampaignTest, ZeroWorkersRejected) {
  auto opts = ParserOptions(1);
  opts.workers = 0;
  EXPECT_EQ(ValidateFuzzCampaignOptions(opts).code(),
            StatusCode::kInvalidArgument);
  opts = ParserOptions(1);
  opts.batch_execs = 0;
  EXPECT_EQ(ValidateFuzzCampaignOptions(opts).code(),
            StatusCode::kInvalidArgument);
}

// --- symex portfolio -------------------------------------------------------

TEST(SymexCampaignTest, PortfolioFindsTheBugAndDeduplicates) {
  core::SessionConfig cfg;
  auto base = core::Session::Create(cfg);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(base.value()
                  ->LoadFirmwareAsm(firmware::VulnerableParserFirmware())
                  .ok());
  ASSERT_TRUE(
      base.value()->MakeSymbolicRegion(vm::kRamBase, 2, "packet").ok());

  SymexCampaignOptions opts;
  opts.workers = 3;  // BFS, DFS and random searchers over the same space
  opts.seed = 7;
  auto report = RunSymexCampaign(*base.value(), opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().per_worker.size(), 3u);
  // Every worker finds the overflow; the merged report carries it once.
  ASSERT_GE(report.value().bugs.size(), 1u);
  std::set<std::pair<uint32_t, std::string>> keys;
  for (const auto& bug : report.value().bugs)
    EXPECT_TRUE(keys.insert({bug.pc, bug.kind}).second)
        << "duplicate bug in merged report";
  EXPECT_EQ(report.value().bugs[0].kind, "out-of-bounds store");
  EXPECT_GE(report.value().modeled_serial_time.picos(),
            report.value().modeled_campaign_time.picos());
}

}  // namespace
}  // namespace hardsnap::campaign
