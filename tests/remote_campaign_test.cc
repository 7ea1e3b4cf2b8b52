// Networked campaigns: FuzzCampaign workers driving remote targets hosted
// by a TargetServer, exercised over a loopback Unix socket.
//
// The contract under test is the pure-function findings guarantee
// extended across the wire: with share_corpus=false a campaign's findings
// are a function of (seed, firmware) only — not of WHERE the targets run,
// and not of whether the server died and restarted mid-campaign (workers
// fail over, re-provision a fresh session and catch up by seed replay).
#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>

#include "campaign/campaign.h"
#include "firmware/corpus.h"
#include "net/address.h"
#include "periph/periph.h"
#include "progress_trigger.h"
#include "remote/remote_target.h"
#include "remote/server.h"
#include "rtl/elaborate.h"
#include "vm/assembler.h"

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
  HS_CHECK_MSG(img.ok(), img.status().ToString());
  return std::move(img).value();
}

FuzzCampaignOptions BaseOptions(uint64_t execs = 400) {
  FuzzCampaignOptions opts;
  opts.workers = 2;
  opts.total_execs = execs;
  opts.seed = 2026;
  opts.fuzz.input_size = 2;
  return opts;
}

remote::TargetFactory ServerSideSimFactory() {
  return []() -> Result<std::unique_ptr<bus::HardwareTarget>> {
    auto t = bus::SimulatorTarget::Create(Soc());
    if (!t.ok()) return t.status();
    return std::unique_ptr<bus::HardwareTarget>(std::move(t).value());
  };
}

// Worker-side factory: every (re-)provision dials the given address.
CampaignTargetFactory ConnectFactory(const net::Address& addr) {
  return [addr](unsigned worker, uint64_t /*incarnation*/)
             -> Result<std::unique_ptr<bus::HardwareTarget>> {
    remote::RemoteTargetOptions options;
    options.client_name = "test-worker-" + std::to_string(worker);
    options.connect_backoff_ms = 20;
    options.connect_backoff_cap_ms = 100;
    auto target = remote::RemoteTarget::Connect(addr, options);
    if (!target.ok()) return target.status();
    return std::unique_ptr<bus::HardwareTarget>(std::move(target).value());
  };
}

// A fresh per-test Unix socket path (short enough for sockaddr_un).
std::string SocketPath(const char* tag) {
  return "/tmp/hs_" + std::string(tag) + "_" + std::to_string(getpid()) +
         ".sock";
}

void ExpectSameFindings(const CampaignReport& a, const CampaignReport& b) {
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.edges_covered, b.edges_covered);
  EXPECT_EQ(a.unique_crashes, b.unique_crashes);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].crash.pc, b.findings[i].crash.pc);
    EXPECT_EQ(a.findings[i].crash.input, b.findings[i].crash.input);
    EXPECT_EQ(a.findings[i].worker, b.findings[i].worker);
    EXPECT_EQ(a.findings[i].worker_seed, b.findings[i].worker_seed);
    EXPECT_EQ(a.findings[i].execs_at_find, b.findings[i].execs_at_find);
  }
}

TEST(RemoteCampaignTest, FindingsMatchInProcessRunExactly) {
  const std::string path = SocketPath("eq");
  auto addr = net::Address::Parse("unix:" + path);
  ASSERT_TRUE(addr.ok());
  auto server =
      remote::TargetServer::Start(addr.value(), ServerSideSimFactory());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const vm::FirmwareImage image = ParserImage();
  FuzzCampaign local(Soc(), image, BaseOptions());
  auto local_report = local.Run();
  ASSERT_TRUE(local_report.ok()) << local_report.status().ToString();
  ASSERT_GE(local_report.value().unique_crashes, 1u);

  FuzzCampaignOptions remote_opts = BaseOptions();
  remote_opts.target_factory = ConnectFactory(addr.value());
  FuzzCampaign remote_campaign(Soc(), image, remote_opts);
  auto remote_report = remote_campaign.Run();
  ASSERT_TRUE(remote_report.ok()) << remote_report.status().ToString();

  ExpectSameFindings(local_report.value(), remote_report.value());
  server.value()->Stop();
}

TEST(RemoteCampaignTest, TargetFactoryDoesNotChangeTheFingerprint) {
  // Resume compatibility: pointing a persisted campaign at remote targets
  // must not invalidate its durable state — the factory determines WHERE
  // execs run, never WHAT they find.
  const vm::FirmwareImage image = ParserImage();
  FuzzCampaignOptions plain = BaseOptions();
  FuzzCampaignOptions wired = BaseOptions();
  auto addr = net::Address::Parse("unix:/tmp/nowhere.sock");
  ASSERT_TRUE(addr.ok());
  wired.target_factory = ConnectFactory(addr.value());
  wired.stats_interval_seconds = 5;
  EXPECT_EQ(FuzzCampaignFingerprint(plain, image),
            FuzzCampaignFingerprint(wired, image));
}

// Worker 0's Run calls before the server restart. Its 600 execs of the
// 1,200-exec campaign make about 42,000 Runs, so the restart lands about a
// quarter of the way in, whatever the speed of the host or the build.
constexpr uint64_t kRunsBeforeRestart = 10000;

TEST(RemoteCampaignTest, ServerRestartMidCampaignKeepsFindingsIdentical) {
  const std::string path = SocketPath("restart");
  auto addr = net::Address::Parse("unix:" + path);
  ASSERT_TRUE(addr.ok());

  const vm::FirmwareImage image = ParserImage();
  // Clean reference run, entirely in-process.
  FuzzCampaignOptions ref_opts = BaseOptions(1200);
  FuzzCampaign reference(Soc(), image, ref_opts);
  auto ref_report = reference.Run();
  ASSERT_TRUE(ref_report.ok());

  auto first =
      remote::TargetServer::Start(addr.value(), ServerSideSimFactory());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Kill the server at a fixed point of worker 0's work, then bring a
  // replacement up on the same address. Workers see kUnavailable,
  // re-provision through the connect retry window and catch up by seed
  // replay.
  Result<std::unique_ptr<remote::TargetServer>> second =
      InvalidArgument("server never restarted");
  progress::Tripwire wire;
  wire.at = kRunsBeforeRestart;
  wire.action = [&] {
    first.value()->Stop();
    second = remote::TargetServer::Start(addr.value(), ServerSideSimFactory());
  };
  FuzzCampaignOptions opts = BaseOptions(1200);
  opts.max_reprovisions = 8;
  opts.target_factory =
      progress::WithTripwire(ConnectFactory(addr.value()), &wire);
  FuzzCampaign campaign(Soc(), image, opts);
  auto report = campaign.Run();

  ASSERT_TRUE(wire.fired);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The kill must actually have been survived, not merely missed: at
  // least one worker lost its session and re-provisioned.
  EXPECT_GE(report.value().reprovisions, 1u);
  ExpectSameFindings(ref_report.value(), report.value());
  second.value()->Stop();
}

// Multi-process shape the CI soak job exercises via the CLI; here the
// in-process version: one server, two whole campaigns running
// concurrently against it, per-session isolation keeping them exact.
TEST(RemoteCampaignTest, TwoConcurrentCampaignsShareOneServer) {
  const std::string path = SocketPath("soak");
  auto addr = net::Address::Parse("unix:" + path);
  ASSERT_TRUE(addr.ok());
  remote::TargetServerOptions server_opts;
  server_opts.max_sessions = 8;
  auto server = remote::TargetServer::Start(
      addr.value(), ServerSideSimFactory(), server_opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const vm::FirmwareImage image = ParserImage();
  FuzzCampaign local(Soc(), image, BaseOptions());
  auto local_report = local.Run();
  ASSERT_TRUE(local_report.ok());

  Result<CampaignReport> reports[2] = {InvalidArgument("never ran"),
                                       InvalidArgument("never ran")};
  std::thread clients[2];
  for (int i = 0; i < 2; ++i) {
    clients[i] = std::thread([&, i] {
      FuzzCampaignOptions opts = BaseOptions();
      opts.target_factory = ConnectFactory(addr.value());
      FuzzCampaign campaign(Soc(), image, opts);
      reports[i] = campaign.Run();
    });
  }
  for (auto& t : clients) t.join();

  for (auto& report : reports) {
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Same seed, isolated sessions: both campaigns reproduce the
    // in-process findings despite sharing the server.
    ExpectSameFindings(local_report.value(), report.value());
  }
  EXPECT_GE(server.value()->stats().sessions_accepted,
            4u);  // 2 campaigns x 2 workers
  server.value()->Stop();
}

}  // namespace
}  // namespace hardsnap::campaign
