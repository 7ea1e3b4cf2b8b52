// Crash-injection matrix and exact-resume equivalence for durable
// campaigns (docs/checkpoint_resume.md).
//
// The matrix forks one child per (crash point, occurrence): the child
// arms the point, runs a persisted fuzz campaign, and _exits at the hook
// exactly like a kill -9 — no destructors, no flushes, possibly leaving a
// torn journal record or a half-written checkpoint tmp behind. The
// parent then resumes from the directory and asserts the contract: the
// campaign completes, no acknowledged finding was lost, none was
// double-counted, and the final findings match an uninterrupted run.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/symex_campaign.h"
#include "core/session.h"
#include "firmware/corpus.h"
#include "periph/periph.h"
#include "persist/crash_point.h"
#include "progress_trigger.h"
#include "rtl/elaborate.h"
#include "vm/assembler.h"
#include "vm/memmap.h"

namespace hardsnap::campaign {
namespace {

rtl::Design& Soc() {
  static rtl::Design* d = [] {
    auto r =
        rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()), "soc");
    HS_CHECK_MSG(r.ok(), r.status().ToString());
    return new rtl::Design(std::move(r).value());
  }();
  return *d;
}

vm::FirmwareImage ParserImage() {
  auto img = vm::Assemble(firmware::VulnerableParserFirmware());
  HS_CHECK_MSG(img.ok(), img.status().ToString());
  return img.value();
}

class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/hs_resume_test_XXXXXX";
    char* d = mkdtemp(tmpl);
    HS_CHECK(d != nullptr);
    path_ = d;
  }
  ~ScratchDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      // best-effort cleanup; leak the scratch dir rather than abort
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

FuzzCampaignOptions PersistedOptions(const std::string& dir, unsigned workers,
                                     uint64_t execs,
                                     uint64_t checkpoint_every = 1) {
  FuzzCampaignOptions opts;
  opts.workers = workers;
  opts.total_execs = execs;
  opts.seed = 2026;
  opts.fuzz.input_size = 2;
  opts.persist.dir = dir;
  opts.persist.checkpoint_every = checkpoint_every;
  return opts;
}

Result<CampaignReport> RunOnce(const FuzzCampaignOptions& opts) {
  FuzzCampaign campaign(Soc(), ParserImage(), opts);
  return campaign.Run();
}

// Strict field-by-field finding equality (byte-identical resume).
void ExpectFindingsIdentical(const std::vector<CampaignFinding>& a,
                             const std::vector<CampaignFinding>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].crash.pc, b[i].crash.pc);
    EXPECT_EQ(a[i].crash.reason, b[i].crash.reason);
    EXPECT_EQ(a[i].crash.input, b[i].crash.input);
    EXPECT_EQ(a[i].worker, b[i].worker);
    EXPECT_EQ(a[i].worker_seed, b[i].worker_seed);
    EXPECT_EQ(a[i].execs_at_find, b[i].execs_at_find);
  }
}

// Order-insensitive comparison for multi-worker runs: the set of crash
// sites (and what it takes to replay each) must match; which worker's
// thread won a same-pc race may differ.
std::set<std::pair<uint32_t, std::string>> FindingKeys(
    const std::vector<CampaignFinding>& findings) {
  std::set<std::pair<uint32_t, std::string>> keys;
  for (const auto& f : findings) keys.insert({f.crash.pc, f.crash.reason});
  return keys;
}

// Forked child body: arm one crash point, run a persisted campaign, die
// at the hook (exit kCrashExitCode) or complete (exit 0). _exit only —
// a crashed process runs no destructors either.
[[noreturn]] void ChildCampaign(const std::string& point, uint64_t nth,
                                const FuzzCampaignOptions& opts) {
  persist::ArmCrashPoint(point, nth);
  FuzzCampaign campaign(Soc(), ParserImage(), opts);
  auto report = campaign.Run();
  _exit(report.ok() ? 0 : 7);
}

// Runs the kill/recover cycle for one (point, nth); returns the resumed
// report.
Result<CampaignReport> KillAndResume(const std::string& point, uint64_t nth,
                                     unsigned workers, uint64_t execs,
                                     const std::string& dir) {
  auto opts = PersistedOptions(dir, workers, execs);
  const pid_t pid = fork();
  HS_CHECK(pid >= 0);
  if (pid == 0) ChildCampaign(point, nth, opts);
  int status = 0;
  HS_CHECK(waitpid(pid, &status, 0) == pid);
  HS_CHECK_MSG(WIFEXITED(status), "child died abnormally at " + point);
  const int code = WEXITSTATUS(status);
  // Either the armed point was reached (the interesting case) or the
  // campaign was too short to hit it that often and completed.
  HS_CHECK_MSG(code == persist::kCrashExitCode || code == 0,
               point + " child exited " + std::to_string(code));
  return RunOnce(opts);
}

TEST(CrashMatrixTest, EveryCrashPointIsReachedByAPersistedCampaign) {
  // Counting mode: hooks tally instead of crashing. One small persisted
  // campaign with checkpoint_every=1 must traverse every registered
  // point, so the canonical list cannot drift from the code.
  persist::SetCrashPointCounting(true);
  persist::ClearCrashPointHits();
  ScratchDir dir;
  auto report = RunOnce(PersistedOptions(dir.path(), 2, 400));
  persist::SetCrashPointCounting(false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const auto hits = persist::CrashPointHits();
  persist::ClearCrashPointHits();
  for (const auto& point : persist::AllCrashPoints()) {
    auto it = hits.find(point);
    ASSERT_NE(it, hits.end()) << point << " is registered but never hit";
    EXPECT_GE(it->second, 1u) << point;
  }
}

TEST(CrashMatrixTest, KillAtEveryPointLosesNoAcknowledgedFinding) {
  const unsigned kWorkers = 2;
  const uint64_t kExecs = 400;
  ScratchDir fresh_dir;
  auto fresh = RunOnce(PersistedOptions(fresh_dir.path(), kWorkers, kExecs));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_FALSE(fresh.value().findings.empty())
      << "fixture lost its bug: the matrix would prove nothing";
  const auto want = FindingKeys(fresh.value().findings);

  for (const auto& point : persist::AllCrashPoints()) {
    for (uint64_t nth : {uint64_t{1}, uint64_t{3}}) {
      SCOPED_TRACE(point + " (occurrence " + std::to_string(nth) + ")");
      ScratchDir dir;
      auto resumed = KillAndResume(point, nth, kWorkers, kExecs, dir.path());
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(FindingKeys(resumed.value().findings), want);
      // No double-counting: exactly one finding per crash site.
      EXPECT_EQ(resumed.value().findings.size(), want.size());
      EXPECT_EQ(resumed.value().execs, kExecs);
    }
  }
}

TEST(ResumeEquivalenceTest, SingleWorkerResumeIsByteIdentical) {
  const uint64_t kExecs = 800;
  ScratchDir fresh_dir;
  auto fresh = RunOnce(PersistedOptions(fresh_dir.path(), 1, kExecs));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  ScratchDir dir;
  // Kill mid-campaign at the 5th journal acknowledgment...
  auto resumed =
      KillAndResume("journal.append.after_sync", 5, 1, kExecs, dir.path());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().resumed);
  ExpectFindingsIdentical(fresh.value().findings, resumed.value().findings);
  EXPECT_EQ(fresh.value().edges_covered, resumed.value().edges_covered);
  EXPECT_EQ(fresh.value().execs, resumed.value().execs);
}

TEST(ResumeEquivalenceTest, BudgetExtensionResumesPastACompletedRun) {
  // A finished campaign is a valid base: rerunning with a larger budget
  // continues rather than restarting, and lands exactly where an
  // uninterrupted run of the larger budget lands.
  ScratchDir fresh_dir;
  auto fresh = RunOnce(PersistedOptions(fresh_dir.path(), 2, 1600));
  ASSERT_TRUE(fresh.ok());

  ScratchDir dir;
  ASSERT_TRUE(RunOnce(PersistedOptions(dir.path(), 2, 800)).ok());
  auto extended = RunOnce(PersistedOptions(dir.path(), 2, 1600));
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  EXPECT_TRUE(extended.value().resumed);
  EXPECT_EQ(FindingKeys(extended.value().findings),
            FindingKeys(fresh.value().findings));
  EXPECT_EQ(extended.value().execs, 1600u);
}

TEST(ResumeEquivalenceTest, ResumeSurvivesLinkFaults) {
  // PR 3's fault-tolerant transport composes with durability: a lossy
  // host<->target link changes timing, not results — so it must change
  // neither the checkpoints nor the resumed findings.
  auto faulty = [](const std::string& dir) {
    auto opts = PersistedOptions(dir, 2, 400);
    opts.simulator_options.link.faults.drop_rate = 0.02;
    opts.simulator_options.link.faults.corrupt_rate = 0.02;
    opts.simulator_options.link.faults.seed = 99;
    return opts;
  };
  ScratchDir fresh_dir;
  auto fresh = RunOnce(faulty(fresh_dir.path()));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  ScratchDir dir;
  const auto opts = faulty(dir.path());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ChildCampaign("checkpoint.after_tmp", 2, opts);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  auto resumed = RunOnce(opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(FindingKeys(resumed.value().findings),
            FindingKeys(fresh.value().findings));
}

// Worker 0's Run calls before the stop request. Its 800 execs of the
// 1,600-exec campaign make about 56,000 Runs, so the stop lands early in
// the campaign, whatever the speed of the host or the build.
constexpr uint64_t kRunsBeforeStop = 10000;

TEST(ResumeEquivalenceTest, ExternalStopDrainsDurablyThenResumes) {
  // The CLI's SIGINT path: external_stop set mid-campaign makes workers
  // finish their current batch and the campaign flush a final
  // checkpoint; resuming then completes with the findings of an
  // uninterrupted run.
  ScratchDir fresh_dir;
  auto fresh = RunOnce(PersistedOptions(fresh_dir.path(), 2, 1600));
  ASSERT_TRUE(fresh.ok());

  ScratchDir dir;
  auto opts = PersistedOptions(dir.path(), 2, 1600);
  std::atomic<bool> stop{false};
  opts.external_stop = &stop;
  // The stop comes at a fixed point of worker 0's work, not after a sleep
  // that a fast enough campaign outruns.
  progress::Tripwire wire;
  wire.at = kRunsBeforeStop;
  wire.action = [&stop] { stop.store(true); };
  opts.target_factory = progress::WithTripwire(
      [](unsigned, uint64_t) -> Result<std::unique_ptr<bus::HardwareTarget>> {
        auto t = bus::SimulatorTarget::Create(Soc());
        if (!t.ok()) return t.status();
        return std::unique_ptr<bus::HardwareTarget>(std::move(t).value());
      },
      &wire);
  auto interrupted = RunOnce(opts);
  ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
  ASSERT_TRUE(wire.fired);
  ASSERT_TRUE(interrupted.value().interrupted);
  EXPECT_LT(interrupted.value().execs, 1600u);

  opts.external_stop = nullptr;
  opts.target_factory = nullptr;
  auto resumed = RunOnce(opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().resumed);
  EXPECT_EQ(resumed.value().execs, 1600u);
  EXPECT_EQ(FindingKeys(resumed.value().findings),
            FindingKeys(fresh.value().findings));
}

TEST(ResumeEquivalenceTest, ResumeWithDifferentFirmwareFailsLoudly) {
  // The firmware image is part of the campaign fingerprint; resuming a
  // directory with a different program must fail instead of silently
  // mixing two campaigns' findings. (Even a never-executed extra
  // instruction counts: it IS a different program.)
  ScratchDir dir;
  ASSERT_TRUE(RunOnce(PersistedOptions(dir.path(), 1, 400)).ok());
  auto other = vm::Assemble(firmware::VulnerableParserFirmware() +
                            "\n  addi x0, x0, 0\n");
  ASSERT_TRUE(other.ok());
  auto opts = PersistedOptions(dir.path(), 1, 800);
  FuzzCampaign campaign(Soc(), other.value(), opts);
  auto report = campaign.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status().ToString();
}

TEST(ResumeEquivalenceTest, ResumeWithDifferentOptionsFailsLoudly) {
  ScratchDir dir;
  ASSERT_TRUE(RunOnce(PersistedOptions(dir.path(), 2, 400)).ok());
  auto opts = PersistedOptions(dir.path(), 2, 800);
  opts.seed = 9999;  // different campaign seed -> different fingerprint
  auto report = RunOnce(opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(SymexResumeTest, PortfolioRecoversCompletedWorkers) {
  core::SessionConfig cfg;
  auto base = core::Session::Create(cfg);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(base.value()
                  ->LoadFirmwareAsm(firmware::VulnerableParserFirmware())
                  .ok());
  ASSERT_TRUE(
      base.value()->MakeSymbolicRegion(vm::kRamBase, 2, "packet").ok());

  ScratchDir dir;
  SymexCampaignOptions opts;
  opts.workers = 2;
  opts.seed = 7;
  opts.persist.dir = dir.path();
  auto first = RunSymexCampaign(*base.value(), opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().resumed);

  opts.persist.resume_required = true;
  auto second = RunSymexCampaign(*base.value(), opts);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().resumed);
  EXPECT_EQ(second.value().resumed_workers, 2u);  // nothing re-ran
  ASSERT_EQ(second.value().bugs.size(), first.value().bugs.size());
  for (size_t i = 0; i < first.value().bugs.size(); ++i) {
    EXPECT_EQ(second.value().bugs[i].pc, first.value().bugs[i].pc);
    EXPECT_EQ(second.value().bugs[i].kind, first.value().bugs[i].kind);
  }
  EXPECT_EQ(second.value().paths_completed, first.value().paths_completed);
  EXPECT_EQ(second.value().instructions, first.value().instructions);
}

TEST(SymexResumeTest, ChangedPortfolioShapeFailsLoudly) {
  core::SessionConfig cfg;
  auto base = core::Session::Create(cfg);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(base.value()
                  ->LoadFirmwareAsm(firmware::VulnerableParserFirmware())
                  .ok());
  ASSERT_TRUE(
      base.value()->MakeSymbolicRegion(vm::kRamBase, 2, "packet").ok());
  ScratchDir dir;
  SymexCampaignOptions opts;
  opts.workers = 2;
  opts.seed = 7;
  opts.persist.dir = dir.path();
  ASSERT_TRUE(RunSymexCampaign(*base.value(), opts).ok());
  opts.seed = 8;
  auto mismatched = RunSymexCampaign(*base.value(), opts);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hardsnap::campaign
