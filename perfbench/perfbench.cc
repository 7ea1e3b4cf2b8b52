// End-to-end benchmark of the HardSnap pipeline (see README.md here).
//
//   perfbench --workload fuzz-sim|fuzz-remote|symex-fpga --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Each workload is a closed loop in this process, driven through the same
// public entry points the CLI uses. A run builds the workload several
// times to time set-up, runs one untimed warm-up rep, then repeats the
// same fixed-size rep until --seconds have passed and reports medians.
// Every rep is checked against the warm-up rep: modeled time and every
// exact count must repeat bit for bit. With --trace 1, reps alternate
// between untraced and traced (every target call timed by TimedTarget),
// and the per-layer split is printed instead of the end-to-end metrics.
// The last stdout line is one JSON object.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bus/sim_target.h"
#include "campaign/campaign.h"
#include "common/rng.h"
#include "core/session.h"
#include "firmware/corpus.h"
#include "fpga/fpga_target.h"
#include "fuzz/fuzzer.h"
#include "net/address.h"
#include "periph/periph.h"
#include "remote/remote_target.h"
#include "remote/server.h"
#include "rtl/elaborate.h"
#include "snapshot/orchestrator.h"
#include "snapshot/snapshot.h"
#include "symex/executor.h"
#include "timed_target.h"
#include "vm/assembler.h"

namespace perfbench {
namespace {

namespace hs = hardsnap;
namespace fs = std::filesystem;

// Work per rep. Sized so one rep takes 4 to 10 s on a 4-vCPU host and a
// 15 s window holds at least two reps to take the median of. The cost of
// a fuzz-sim rep varies with its campaign seeds (see FuzzWorkload), so it
// averages over 64 of them. Each campaign pays a fixed cost at its start
// and end (threads, targets, persistence open and final checkpoint),
// reported as fuzz.outside_s; fewer, longer campaigns would average over
// fewer seeds.
constexpr unsigned kFuzzSimCampaigns = 64;     // per rep
constexpr uint64_t kFuzzSimExecs = 256;        // per campaign, 2 workers
constexpr unsigned kFuzzRemoteCampaigns = 32;  // per rep
constexpr uint64_t kFuzzRemoteExecs = 128;     // per campaign, 1 worker
constexpr unsigned kFuzzInputSize = 8;
constexpr unsigned kSymexBranches = 7;       // 2^7 = 128 paths
constexpr uint64_t kSymexPaths = uint64_t{1} << kSymexBranches;
// Fresh constructions per run; set-up time is their median. One takes
// about 6 ms, so sampling takes 1 to 2 s.
constexpr int kSetupSamples = 200;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

using Values = std::map<std::string, double>;
// Outputs of one rep that must repeat bit for bit, rendered as text.
using Exact = std::map<std::string, std::string>;

// FNV-1a over every key and value, so runs can be compared by one line.
uint64_t Digest(const Exact& exact) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [k, v] : exact)
    for (const std::string* s : {&k, &v}) {
      for (unsigned char c : *s) h = (h ^ c) * 0x100000001b3ull;
      h = (h ^ 0xff) * 0x100000001b3ull;
    }
  return h;
}

struct Rep {
  double wall_s = 0.0;  // host time of the timed call
  uint64_t ops = 0;
  uint64_t failed = 0;  // infrastructure/hardware failures, reprovisions
  double modeled_s = 0.0;
  std::string error;    // non-empty when the rep itself failed
  Exact exact;
  Values layers;        // traced reps only
};

struct SetupSample {
  double total_s = 0.0;
  Values parts;  // per-layer split (rtl.compile_s, ...)
};

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One fresh construction of everything a user pays for before the
  // first op; timed.
  virtual hs::Result<SetupSample> SetupOnce(bool trace) = 0;
  // Builds the state the reps share (compiled SoC, server).
  virtual hs::Status Prepare() = 0;
  // One fixed-size rep; `meters` is non-null for a traced rep.
  virtual Rep RunRep(MeterRegistry* meters) = 0;
  // Workload-specific output checks, after all reps.
  virtual void Check(Checker* check) = 0;
  virtual const char* op_name() const = 0;
};

hs::Result<std::unique_ptr<hs::rtl::Design>> CompileSoc() {
  auto design = hs::rtl::CompileVerilog(
      hs::periph::BuildSoc(hs::periph::DefaultCorpus()), "soc");
  if (!design.ok()) return design.status();
  return std::make_unique<hs::rtl::Design>(std::move(design).value());
}

// --- fuzz-sim and fuzz-remote ------------------------------------------

// Counters summed over the campaigns of one rep.
struct FuzzTotals {
  uint64_t execs = 0, instructions = 0, frames = 0, retransmits = 0;
  uint64_t snapshot_bytes = 0, restores = 0, delta_restores = 0;
  uint64_t rpcs = 0, batched_ops = 0, wire_bytes = 0;
  uint64_t journal_records = 0, checkpoints = 0;
  double durability_s = 0.0;
  double worker_slot_s = 0.0;  // workers x campaign wall time
  double wait_s = 0.0;  // workers done before the campaign's last call
};

// One rep runs many short campaigns, each with its own seed drawn from
// --seed. The cost of an exec depends on the campaign seed: the parser's
// copy loop runs as often as the corpus' length bytes say, 25 to 70 VM
// instructions per exec across seeds, and a campaign waits for the slower
// of its workers. One long campaign would make ops_per_s mostly a
// function of --seed; the mean over many campaigns much less so.
class FuzzWorkload : public Workload {
 public:
  FuzzWorkload(bool remote, uint64_t seed, fs::path workdir)
      : remote_(remote),
        workdir_(std::move(workdir)),
        campaigns_(remote ? kFuzzRemoteCampaigns : kFuzzSimCampaigns),
        credits_(campaigns_),
        last_findings_(campaigns_) {
    uint64_t x = seed;
    for (unsigned k = 0; k < campaigns_; ++k)
      campaign_seeds_.push_back(hs::SplitMix64(&x));
  }
  ~FuzzWorkload() override {
    if (server_) server_->Stop();
  }

  const char* op_name() const override { return "execs"; }

  hs::Status Prepare() override {
    HS_ASSIGN_OR_RETURN(soc_, CompileSoc());
    HS_ASSIGN_OR_RETURN(image_, hs::vm::Assemble(
                                    hs::firmware::VulnerableParserFirmware()));
    if (remote_) {
      HS_ASSIGN_OR_RETURN(server_, StartServer(*soc_, "srv.sock",
                                               hs::remote::TargetServerOptions()
                                                   .accept_poll_ms));
      server_addr_ = server_->bound();
    }
    return hs::Status::Ok();
  }

  // Compile, one target per worker (a server and a connection for
  // fuzz-remote), and each worker's harness snapshot.
  hs::Result<SetupSample> SetupOnce(bool) override {
    SetupSample s;
    const Clock::time_point t0 = Clock::now();
    HS_ASSIGN_OR_RETURN(auto soc, CompileSoc());
    HS_ASSIGN_OR_RETURN(auto image, hs::vm::Assemble(
                                        hs::firmware::VulnerableParserFirmware()));
    s.parts["rtl.compile_s"] = Since(t0);

    const hs::campaign::FuzzCampaignOptions opts = Options(0);
    std::unique_ptr<hs::remote::TargetServer> server;
    std::vector<std::unique_ptr<hs::bus::HardwareTarget>> targets;
    std::vector<std::unique_ptr<hs::fuzz::Fuzzer>> fuzzers;
    const Clock::time_point t1 = Clock::now();
    if (remote_) {
      // Stop() waits out the accept loop's poll. It is not timed, but at
      // the default 100 ms it would add up to 20 s over the set-up
      // samples; accepting a connection does not depend on the poll.
      HS_ASSIGN_OR_RETURN(
          server, StartServer(*soc,
                              "setup" + std::to_string(setups_++) + ".sock",
                              /*accept_poll_ms=*/5));
      HS_ASSIGN_OR_RETURN(auto t, hs::remote::RemoteTarget::Connect(
                                      server->bound(), ClientOptions(0)));
      targets.push_back(std::move(t));
      s.parts["remote.connect_s"] = Since(t1);
    } else {
      for (unsigned w = 0; w < opts.workers; ++w) {
        HS_ASSIGN_OR_RETURN(auto t, hs::bus::SimulatorTarget::Create(
                                        *soc, opts.simulator_options));
        targets.push_back(std::move(t));
      }
      s.parts["sim.create_s"] = Since(t1);
    }
    const Clock::time_point t2 = Clock::now();
    for (unsigned w = 0; w < targets.size(); ++w) {
      hs::fuzz::FuzzOptions fopts = opts.fuzz;
      fopts.seed = hs::DeriveWorkerSeed(opts.seed, w);
      fuzzers.push_back(std::make_unique<hs::fuzz::Fuzzer>(targets[w].get(),
                                                           image, fopts));
      HS_RETURN_IF_ERROR(fuzzers.back()->EnsureSnapshotReady());
    }
    s.parts["setup.harness_s"] = Since(t2);
    s.total_s = Since(t0);
    fuzzers.clear();
    targets.clear();
    if (server) server->Stop();
    return s;
  }

  Rep RunRep(MeterRegistry* meters) override {
    Rep rep;
    FuzzTotals t;
    for (unsigned k = 0; k < campaigns_; ++k)
      RunCampaign(k, meters, &rep, &t);
    ++reps_;
    if (meters && rep.error.empty()) rep.layers = Layers(*meters, t);
    return rep;
  }

  void Check(Checker* check) override {
    check->Expect(!findings_.empty(),
                  "the vulnerable parser's crash was never found");
    // Every finding reproduces single-threaded from its worker seed.
    const hs::campaign::FuzzCampaignOptions opts = Options(0);
    for (const hs::campaign::CampaignFinding& f : findings_) {
      auto crash = hs::campaign::ReplayFinding(*soc_, image_, opts, f);
      check->Expect(crash.ok() && crash.value().input == f.crash.input &&
                        crash.value().reason == f.crash.reason,
                    "finding at pc " + Hex(f.crash.pc) + " (worker seed " +
                        std::to_string(f.worker_seed) + ", execs " +
                        std::to_string(f.execs_at_find) + ") does not replay");
    }
    std::printf("check: %zu distinct finding(s) replayed\n", findings_.size());

    // Which worker is credited with a crash pc depends on thread
    // scheduling (a known defect of SharedCorpus::ReportCrash), so the
    // credit is printed, not compared.
    size_t varied = 0;
    for (unsigned k = 0; k < campaigns_; ++k) {
      if (credits_[k].size() > 1) ++varied;
      std::printf("campaign %u credited (worker, execs_at_find):", k);
      for (const auto& [text, count] : credits_[k])
        std::printf(" [%s] x%zu", text.c_str(), count);
      std::printf("\n");
    }
    std::printf("check: %zu of %u campaigns credited a crash differently "
                "across %zu reps\n",
                varied, campaigns_, reps_);
    if (!remote_) return;

    // Findings over the wire equal those of local campaigns with the
    // same options.
    for (unsigned k = 0; k < campaigns_; ++k) {
      hs::campaign::FuzzCampaign local(*soc_, image_, Options(k));
      auto report = local.Run();
      check->Expect(report.ok() && SameFindings(report.value().findings,
                                                last_findings_[k]),
                    "campaign " + std::to_string(k) +
                        ": remote findings differ from the local campaign's");
    }
    std::printf("check: remote findings equal the local campaigns'\n");
  }

 private:
  hs::campaign::FuzzCampaignOptions Options(unsigned campaign) const {
    hs::campaign::FuzzCampaignOptions opts;
    opts.workers = remote_ ? 1 : 2;
    opts.total_execs = remote_ ? kFuzzRemoteExecs : kFuzzSimExecs;
    opts.seed = campaign_seeds_[campaign];
    opts.fuzz.input_size = kFuzzInputSize;
    return opts;
  }

  static hs::remote::RemoteTargetOptions ClientOptions(unsigned worker) {
    hs::remote::RemoteTargetOptions ropts;
    ropts.client_name = "perfbench-worker-" + std::to_string(worker);
    return ropts;
  }

  void RunCampaign(unsigned k, MeterRegistry* meters, Rep* rep,
                   FuzzTotals* t) {
    hs::campaign::FuzzCampaignOptions opts = Options(k);
    fs::path persist_dir;
    if (!remote_) {
      // A fresh directory per campaign: none may resume from another.
      persist_dir = workdir_ / ("persist" + std::to_string(reps_) + "-" +
                                std::to_string(k));
      opts.persist.dir = persist_dir.string();
    }
    std::vector<CallMeter*> client_meters;
    if (meters)
      for (unsigned w = 0; w < opts.workers; ++w)
        client_meters.push_back(meters->Add("worker"));
    if (remote_) {
      opts.target_factory = [this, client_meters](unsigned worker, uint64_t)
          -> hs::Result<std::unique_ptr<hs::bus::HardwareTarget>> {
        auto c = hs::remote::RemoteTarget::Connect(server_addr_,
                                                   ClientOptions(worker));
        if (!c.ok()) return c.status();
        std::unique_ptr<hs::bus::HardwareTarget> target = std::move(c).value();
        if (client_meters.empty()) return target;
        return Wrap(std::move(target), client_meters[worker]);
      };
    } else if (meters) {
      opts.target_factory = [this, client_meters,
                             topts = opts.simulator_options](unsigned worker,
                                                             uint64_t)
          -> hs::Result<std::unique_ptr<hs::bus::HardwareTarget>> {
        auto c = hs::bus::SimulatorTarget::Create(*soc_, topts);
        if (!c.ok()) return c.status();
        return Wrap(std::move(c).value(), client_meters[worker]);
      };
    }

    hs::remote::ServerStats before, after;
    if (remote_) {
      server_meters_.store(meters);
      before = server_->stats();
    }
    hs::campaign::FuzzCampaign campaign(*soc_, image_, opts);
    const Clock::time_point t0 = Clock::now();
    auto result = campaign.Run();
    const double wall = Since(t0);
    rep->wall_s += wall;
    t->worker_slot_s += opts.workers * wall;
    // The workers split the execs evenly; one that finishes first waits
    // from its last target call to the campaign's last one.
    Clock::time_point end{};
    for (const CallMeter* m : client_meters)
      if (m->any) end = std::max(end, m->last);
    for (const CallMeter* m : client_meters)
      if (m->any)
        t->wait_s += std::chrono::duration<double>(end - m->last).count();
    if (remote_) {
      // The session and its server-side target may still be closing.
      const Clock::time_point idle = Clock::now();
      while (server_->active_sessions() > 0 && Since(idle) < 10.0)
        usleep(100);
      after = server_->stats();
      server_meters_.store(nullptr);
    }
    std::error_code ec;
    if (!persist_dir.empty()) fs::remove_all(persist_dir, ec);

    if (!result.ok()) {
      rep->ops += opts.total_execs;
      rep->failed += opts.total_execs;
      rep->error = result.status().ToString();
      return;
    }
    const hs::campaign::CampaignReport& r = result.value();
    rep->ops += r.execs;
    rep->failed += r.reprovisions;
    rep->modeled_s += r.modeled_campaign_time.seconds();
    RecordFindings(k, r);

    const std::string c = "c" + std::to_string(k) + ".";
    Exact& e = rep->exact;
    e[c + "execs"] = std::to_string(r.execs);
    e[c + "edges"] = std::to_string(r.edges_covered);
    e[c + "unique_crashes"] = std::to_string(r.unique_crashes);
    e[c + "corpus"] = std::to_string(r.corpus_size);
    e[c + "modeled_campaign_s"] = Num(r.modeled_campaign_time.seconds());
    e[c + "modeled_serial_s"] = Num(r.modeled_serial_time.seconds());
    std::set<uint32_t> pcs;
    for (const auto& f : r.findings) pcs.insert(f.crash.pc);
    for (uint32_t pc : pcs) e[c + "crash_pcs"] += Hex(pc) + " ";
    for (const hs::campaign::WorkerResult& w : r.per_worker) {
      const std::string p = c + "worker" + std::to_string(w.worker) + ".";
      const hs::fuzz::FuzzStats& st = w.stats;
      e[p + "execs"] = std::to_string(st.execs);
      e[p + "instructions"] = std::to_string(st.total_instructions);
      e[p + "corpus"] = std::to_string(st.corpus_size);
      e[p + "edges"] = std::to_string(st.edges_covered);
      e[p + "crashes"] = std::to_string(st.crashes);
      e[p + "restores"] = std::to_string(st.snapshot_restores);
      e[p + "delta_restores"] = std::to_string(st.delta_restores);
      e[p + "snapshot_bytes"] = std::to_string(st.snapshot_bytes_copied);
      e[p + "hw_s"] = Num(st.hw_time.seconds());
      e[p + "frames"] = std::to_string(st.link.frames_sent);
      e[p + "retransmits"] = std::to_string(st.link.retransmits);
      e[p + "modeled_s"] = Num(w.modeled_time.seconds());
      e[p + "reprovisions"] = std::to_string(w.reprovisions);
      t->instructions += st.total_instructions;
      t->frames += st.link.frames_sent;
      t->retransmits += st.link.retransmits;
      t->snapshot_bytes += st.snapshot_bytes_copied;
      t->restores += st.snapshot_restores;
      t->delta_restores += st.delta_restores;
    }
    t->execs += r.execs;
    if (remote_) {
      const uint64_t rpcs = after.rpcs - before.rpcs;
      const uint64_t batched = after.batched_ops - before.batched_ops;
      const uint64_t bytes = (after.bytes_received - before.bytes_received) +
                             (after.bytes_sent - before.bytes_sent);
      e[c + "remote.rpcs"] = std::to_string(rpcs);
      e[c + "remote.batched_ops"] = std::to_string(batched);
      e[c + "remote.bytes"] = std::to_string(bytes);
      e[c + "remote.protocol_errors"] =
          std::to_string(after.protocol_errors - before.protocol_errors);
      t->rpcs += rpcs;
      t->batched_ops += batched;
      t->wire_bytes += bytes;
    } else {
      const hs::persist::PersistStats& ps = r.persist_stats;
      e[c + "persist.journal_records"] = std::to_string(ps.journal_records);
      e[c + "persist.checkpoints"] = std::to_string(ps.checkpoints_written);
      t->journal_records += ps.journal_records;
      t->checkpoints += ps.checkpoints_written;
      t->durability_s += ps.durability_seconds;
    }
  }

  // Per-layer split of one traced rep. The simulator layer is the
  // campaign's own targets for fuzz-sim and the server-side targets
  // behind the sessions for fuzz-remote.
  Values Layers(const MeterRegistry& meters, const FuzzTotals& t) const {
    CallMeter sim, client;
    double self = 0.0, spans = 0.0;
    for (const auto& [label, m] : meters.Snapshot()) {
      const bool is_client = label == "worker";
      if (is_client) {
        self += m.span() - m.busy();
        spans += m.span();
      }
      CallMeter& into = is_client && remote_ ? client : sim;
      for (int k = 0; k < kNumKinds; ++k) {
        into.seconds[k] += m.seconds[k];
        into.calls[k] += m.calls[k];
      }
    }
    const double execs = static_cast<double>(std::max<uint64_t>(t.execs, 1));
    Values l;
    l["fuzz.self_s"] = self;
    l["fuzz.wait_s"] = t.wait_s;
    l["fuzz.outside_s"] = t.worker_slot_s - spans - t.wait_s;
    l["vm.instructions_per_exec"] = t.instructions / execs;
    l["bus.frames_per_exec"] = t.frames / execs;
    l["bus.retransmits"] = static_cast<double>(t.retransmits);
    l["fuzz.snapshot_bytes_per_exec"] = t.snapshot_bytes / execs;
    l["sim.run_s"] = sim.seconds[kRun];
    l["sim.run_calls"] = static_cast<double>(sim.calls[kRun]);
    l["sim.mmio_s"] = sim.seconds[kMmio];
    l["sim.mmio_calls"] = static_cast<double>(sim.calls[kMmio]);
    l["sim.restore_s"] = sim.seconds[kSnapshot] + sim.seconds[kReset];
    l["sim.delta_restores"] = static_cast<double>(t.delta_restores);
    l["sim.full_restores"] = static_cast<double>(t.restores - t.delta_restores);
    l["sim.delta_hit_ratio"] =
        t.restores ? static_cast<double>(t.delta_restores) / t.restores : 0.0;
    if (remote_) {
      // Served time is the server-side target's busy time, not
      // ServerStats::rpc_wall_micros: with client and server on one CPU
      // the server's clock also runs while the client, woken by the
      // reply, executes its next VM steps.
      l["remote.call_s"] = client.busy();
      l["remote.calls"] = static_cast<double>(client.total_calls());
      l["remote.serve_s"] = sim.busy();
      l["net.wait_s"] = client.busy() - sim.busy();
      l["remote.rpcs_per_exec"] = t.rpcs / execs;
      l["remote.ops_per_rpc"] =
          t.rpcs ? static_cast<double>(t.batched_ops) / t.rpcs : 0.0;
      l["remote.bytes_per_exec"] = t.wire_bytes / execs;
    } else {
      l["persist.durability_s"] = t.durability_s;
      l["persist.journal_records"] = static_cast<double>(t.journal_records);
      l["persist.checkpoints"] = static_cast<double>(t.checkpoints);
    }
    return l;
  }

  // Serves SimulatorTargets of `soc` on a Unix socket under the run's own
  // directory, so no two runs share a socket path.
  hs::Result<std::unique_ptr<hs::remote::TargetServer>> StartServer(
      const hs::rtl::Design& soc, const std::string& file,
      int accept_poll_ms) {
    HS_ASSIGN_OR_RETURN(auto addr, hs::net::Address::Parse(
                                       "unix:" + (workdir_ / file).string()));
    hs::remote::TargetServerOptions sopts;
    sopts.shape_digest = hs::snapshot::StateShapeDigest(soc);
    sopts.name = "perfbench";
    sopts.accept_poll_ms = accept_poll_ms;
    auto factory = [this, &soc]()
        -> hs::Result<std::unique_ptr<hs::bus::HardwareTarget>> {
      auto t = hs::bus::SimulatorTarget::Create(soc);
      if (!t.ok()) return t.status();
      std::unique_ptr<hs::bus::HardwareTarget> target = std::move(t).value();
      if (MeterRegistry* m = server_meters_.load())
        return Wrap(std::move(target), m->Add("server"));
      return target;
    };
    return hs::remote::TargetServer::Start(addr, factory, sopts);
  }

  void RecordFindings(unsigned k, const hs::campaign::CampaignReport& r) {
    std::string credit;
    for (const hs::campaign::CampaignFinding& f : r.findings) {
      credit += (credit.empty() ? "" : " ") + Hex(f.crash.pc) + ":(" +
                std::to_string(f.worker) + ", " +
                std::to_string(f.execs_at_find) + ")";
      const bool seen = std::any_of(
          findings_.begin(), findings_.end(),
          [&](const hs::campaign::CampaignFinding& g) {
            return g.worker_seed == f.worker_seed &&
                   g.execs_at_find == f.execs_at_find &&
                   g.crash.pc == f.crash.pc;
          });
      if (!seen) findings_.push_back(f);
    }
    ++credits_[k][credit];
    last_findings_[k] = r.findings;
  }

  static bool SameFindings(const std::vector<hs::campaign::CampaignFinding>& a,
                           const std::vector<hs::campaign::CampaignFinding>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].worker != b[i].worker || a[i].worker_seed != b[i].worker_seed ||
          a[i].execs_at_find != b[i].execs_at_find ||
          a[i].crash.pc != b[i].crash.pc ||
          a[i].crash.reason != b[i].crash.reason ||
          a[i].crash.input != b[i].crash.input)
        return false;
    }
    return true;
  }

  static std::string Hex(uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", v);
    return buf;
  }

  const bool remote_;
  const fs::path workdir_;
  const unsigned campaigns_;
  std::vector<uint64_t> campaign_seeds_;
  std::unique_ptr<hs::rtl::Design> soc_;
  hs::vm::FirmwareImage image_;
  std::unique_ptr<hs::remote::TargetServer> server_;
  hs::net::Address server_addr_;
  std::atomic<MeterRegistry*> server_meters_{nullptr};
  unsigned setups_ = 0;
  size_t reps_ = 0;
  std::vector<hs::campaign::CampaignFinding> findings_;  // distinct
  // Per campaign: each distinct crash credit seen, and how often.
  std::vector<std::map<std::string, size_t>> credits_;
  std::vector<std::vector<hs::campaign::CampaignFinding>> last_findings_;
};

// --- symex-fpga ---------------------------------------------------------

class SymexWorkload : public Workload {
 public:
  explicit SymexWorkload(uint64_t seed) {
    exec_.seed = seed;
    // The seed sets the length of the firmware's init prefix (56..64
    // loops). Every seed still explores all 2^7 paths; the prefix only
    // shifts the modeled time a little, so runs with different seeds do
    // not report an identical modeled_s.
    uint64_t x = seed;
    init_loops_ = 56 + static_cast<unsigned>(hs::SplitMix64(&x) % 9);
    firmware_ = hs::firmware::BranchTreeFirmware(kSymexBranches, init_loops_);
  }

  const char* op_name() const override { return "paths"; }

  hs::Status Prepare() override {
    std::printf("symex-fpga: BranchTreeFirmware(%u, %u), a0 symbolic\n",
                kSymexBranches, init_loops_);
    return hs::Status::Ok();
  }

  // Untraced: exactly what `hardsnap run --target=fpga` builds. Traced:
  // the same stack rebuilt from its public parts, so the per-layer split
  // can time compile, target creation and the rest separately.
  hs::Result<SetupSample> SetupOnce(bool trace) override {
    SetupSample s;
    const Clock::time_point t0 = Clock::now();
    if (!trace) {
      HS_ASSIGN_OR_RETURN(auto session, NewSession());
      s.total_s = Since(t0);
      return s;
    }
    HS_ASSIGN_OR_RETURN(auto stack, NewStack(nullptr, &s.parts));
    s.total_s = Since(t0);
    return s;
  }

  Rep RunRep(MeterRegistry* meters) override {
    Rep rep;
    hs::Result<hs::symex::Report> result = hs::Internal("not run");
    if (!meters) {
      auto session = NewSession();
      if (!session.ok()) return Failed(session.status());
      const Clock::time_point t0 = Clock::now();
      result = session.value()->Run();
      rep.wall_s = Since(t0);
    } else {
      CallMeter* meter = meters->Add("fpga");
      auto stack = NewStack(meter, nullptr);
      if (!stack.ok()) return Failed(stack.status());
      const CallMeter before = *meter;
      const Clock::time_point t0 = Clock::now();
      result = stack.value()->executor->Run();
      rep.wall_s = Since(t0);
      Values& l = rep.layers;
      auto delta = [&](CallKind k) {
        return meter->seconds[k] - before.seconds[k];
      };
      l["fpga.snapshot_s"] = delta(kSnapshot);
      l["fpga.snapshot_calls"] =
          static_cast<double>(meter->calls[kSnapshot] -
                              before.calls[kSnapshot]);
      l["fpga.run_s"] = delta(kRun);
      l["fpga.mmio_s"] = delta(kMmio);
      l["symex.self_s"] = rep.wall_s - (meter->busy() - before.busy());
    }
    if (!result.ok()) return Failed(result.status());
    const hs::symex::Report& r = result.value();
    rep.ops = r.paths_completed;
    rep.modeled_s = r.analysis_hw_time.seconds() + r.replay_overhead.seconds();
    paths_exited_ = r.paths_exited;
    exit_codes_ = r.exit_codes;
    bugs_ = r.bugs.size();

    Exact& e = rep.exact;
    e["paths_completed"] = std::to_string(r.paths_completed);
    e["paths_exited"] = std::to_string(r.paths_exited);
    e["bugs"] = std::to_string(r.bugs.size());
    e["test_cases"] = std::to_string(r.test_cases.size());
    e["forks"] = std::to_string(r.forks);
    e["instructions"] = std::to_string(r.instructions);
    e["interrupts"] = std::to_string(r.interrupts_served);
    e["hw_context_switches"] = std::to_string(r.hw_context_switches);
    e["reboots"] = std::to_string(r.reboots);
    e["concretizations"] = std::to_string(r.concretizations);
    e["solver_queries"] = std::to_string(r.solver_queries);
    e["covered_pcs"] = std::to_string(r.covered_pcs);
    e["snapshot_bytes_copied"] = std::to_string(r.snapshot_bytes_copied);
    e["snapshot_bytes_shared"] = std::to_string(r.snapshot_bytes_shared);
    e["snapshot_dedup_ratio"] = Num(r.snapshot_dedup_ratio);
    e["analysis_hw_s"] = Num(r.analysis_hw_time.seconds());
    e["replay_overhead_s"] = Num(r.replay_overhead.seconds());
    e["link.frames"] = std::to_string(r.link.frames_sent);
    e["console"] = r.console;
    std::string codes;
    for (uint32_t c : r.exit_codes) codes += std::to_string(c) + ",";
    e["exit_codes"] = codes;
    if (meters) {
      Values& l = rep.layers;
      l["symex.instructions"] = static_cast<double>(r.instructions);
      l["symex.forks"] = static_cast<double>(r.forks);
      l["symex.hw_context_switches"] =
          static_cast<double>(r.hw_context_switches);
      l["solver.queries"] = static_cast<double>(r.solver_queries);
      l["snapshot.bytes_copied"] =
          static_cast<double>(r.snapshot_bytes_copied);
      l["snapshot.dedup_ratio"] = r.snapshot_dedup_ratio;
      l["bus.retransmits"] = static_cast<double>(r.link.retransmits);
    }
    return rep;
  }

  void Check(Checker* check) override {
    check->Expect(paths_exited_ == kSymexPaths,
                  "expected " + std::to_string(kSymexPaths) +
                      " exited paths, got " + std::to_string(paths_exited_));
    check->Expect(exit_codes_.size() == kSymexPaths &&
                      std::all_of(exit_codes_.begin(), exit_codes_.end(),
                                  [](uint32_t c) { return c == 0; }),
                  "every path must exit with code 0");
    check->Expect(bugs_ == 0, "the branch-tree firmware reported a bug");
    std::printf("check: %" PRIu64 " paths exited with code 0\n",
                paths_exited_);
  }

 private:
  // The FPGA session stack, owned in construction order so it is torn
  // down in reverse.
  struct Stack {
    std::unique_ptr<hs::rtl::Design> soc;
    std::unique_ptr<hs::bus::HardwareTarget> fpga;
    std::unique_ptr<hs::snapshot::TargetOrchestrator> orchestrator;
    std::unique_ptr<hs::core::OrchestratedTarget> proxy;
    std::unique_ptr<hs::symex::Executor> executor;
  };

  static Rep Failed(const hs::Status& s) {
    Rep rep;
    rep.ops = kSymexPaths;
    rep.failed = kSymexPaths;
    rep.error = s.ToString();
    return rep;
  }

  hs::Result<std::unique_ptr<hs::core::Session>> NewSession() {
    hs::core::SessionConfig cfg;
    cfg.target = hs::core::SessionConfig::Target::kFpga;
    cfg.exec = exec_;
    HS_ASSIGN_OR_RETURN(auto session, hs::core::Session::Create(cfg));
    HS_RETURN_IF_ERROR(session->LoadFirmwareAsm(firmware_));
    session->MakeSymbolicRegister(10, "a0");
    return session;
  }

  // Session::Create for Target::kFpga, step for step, with the FPGA
  // target wrapped in a TimedTarget when `meter` is set.
  hs::Result<std::unique_ptr<Stack>> NewStack(CallMeter* meter,
                                              Values* parts) {
    auto stack = std::make_unique<Stack>();
    Clock::time_point t = Clock::now();
    HS_ASSIGN_OR_RETURN(stack->soc, CompileSoc());
    if (parts) (*parts)["rtl.compile_s"] = Since(t);
    t = Clock::now();
    HS_ASSIGN_OR_RETURN(auto fpga, hs::fpga::FpgaTarget::Create(*stack->soc));
    if (parts) (*parts)["fpga.create_s"] = Since(t);
    t = Clock::now();
    stack->fpga = std::move(fpga);
    if (meter) stack->fpga = Wrap(std::move(stack->fpga), meter);
    stack->orchestrator = std::make_unique<hs::snapshot::TargetOrchestrator>(
        std::vector<hs::bus::HardwareTarget*>{stack->fpga.get()});
    HS_RETURN_IF_ERROR(stack->orchestrator->active().ResetHardware());
    stack->proxy = std::make_unique<hs::core::OrchestratedTarget>(
        stack->orchestrator.get());
    stack->executor =
        std::make_unique<hs::symex::Executor>(stack->proxy.get(), exec_);
    HS_ASSIGN_OR_RETURN(auto image, hs::vm::Assemble(firmware_));
    HS_RETURN_IF_ERROR(stack->executor->LoadFirmware(image));
    stack->executor->MakeSymbolicRegister(10, "a0");
    if (parts) (*parts)["setup.harness_s"] = Since(t);
    return stack;
  }

  hs::symex::ExecOptions exec_;
  unsigned init_loops_ = 0;
  std::string firmware_;
  uint64_t paths_exited_ = 0;
  std::vector<uint32_t> exit_codes_;
  size_t bugs_ = 0;
};

// --- metrics and the main loop -------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"modeled_s", "s"},
};

// Every per-layer metric, reported on every workload; a layer the
// workload bypasses reads 0.
constexpr MetricDef kPerLayer[] = {
    {"setup.first_s", "s"},
    {"rtl.compile_s", "s"},
    {"sim.create_s", "s"},
    {"fpga.create_s", "s"},
    {"remote.connect_s", "s"},
    {"setup.harness_s", "s"},
    {"trace.ops_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
    {"mem.rss_growth_mb_per_rep", "MB"},
    {"sim.run_s", "s"},
    {"sim.run_calls", "count"},
    {"sim.mmio_s", "s"},
    {"sim.mmio_calls", "count"},
    {"sim.restore_s", "s"},
    {"sim.delta_restores", "count"},
    {"sim.full_restores", "count"},
    {"sim.delta_hit_ratio", "ratio"},
    {"fuzz.self_s", "s"},
    {"fuzz.wait_s", "s"},
    {"fuzz.outside_s", "s"},
    {"vm.instructions_per_exec", "count"},
    {"bus.frames_per_exec", "count"},
    {"bus.retransmits", "count"},
    {"fuzz.snapshot_bytes_per_exec", "B"},
    {"persist.durability_s", "s"},
    {"persist.journal_records", "count"},
    {"persist.checkpoints", "count"},
    {"remote.call_s", "s"},
    {"remote.calls", "count"},
    {"remote.serve_s", "s"},
    {"remote.rpcs_per_exec", "count"},
    {"remote.ops_per_rpc", "count"},
    {"remote.bytes_per_exec", "B"},
    {"net.wait_s", "s"},
    {"fpga.snapshot_s", "s"},
    {"fpga.snapshot_calls", "count"},
    {"fpga.run_s", "s"},
    {"fpga.mmio_s", "s"},
    {"symex.self_s", "s"},
    {"symex.instructions", "count"},
    {"symex.forks", "count"},
    {"symex.hw_context_switches", "count"},
    {"solver.queries", "count"},
    {"snapshot.bytes_copied", "B"},
    {"snapshot.dedup_ratio", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value.c_str());
    else if (flag == "--trace") args->trace = value == "1";
    else if (flag == "--workdir") args->workdir = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// The high-water mark of this process image. Not getrusage's ru_maxrss:
// Linux carries that across exec, so a benchmark started from a larger
// parent (the Python launcher) would report the parent's peak.
double PeakRssMb() {
  double kib = 0.0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f))
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    std::fclose(f);
  }
  return kib / 1024.0;
}

double RssMb() {
  long total = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &total, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) /
         (1024.0 * 1024.0);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Values& values, bool trace) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Num(v) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (trace)
    for (const MetricDef& m : kPerLayer) emit(m);
  else
    for (const MetricDef& m : kEndToEnd) emit(m);
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fuzz-sim|fuzz-remote|symex-fpga "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  // Per-process directory: persistence dirs and socket paths are unique
  // to this run. Kept short: a Unix socket path has a 107-byte limit.
  const fs::path workdir =
      fs::path(args.workdir) / ("p" + std::to_string(getpid()));
  std::error_code ec;
  fs::remove_all(workdir, ec);
  fs::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", workdir.c_str());
    return 1;
  }

  std::unique_ptr<Workload> w;
  if (args.workload == "fuzz-sim")
    w = std::make_unique<FuzzWorkload>(false, args.seed, workdir);
  else if (args.workload == "fuzz-remote")
    w = std::make_unique<FuzzWorkload>(true, args.seed, workdir);
  else if (args.workload == "symex-fpga")
    w = std::make_unique<SymexWorkload>(args.seed);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.workload == "fuzz-remote") {
    // The client and server threads alternate (closed loop), so they never
    // need two CPUs at once. Pinned to one CPU the rate stops depending on
    // cross-CPU wake-up latency, which moved it by up to 2x between
    // back-to-back runs on a 4-vCPU VM; pinned, they repeated within 5%.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);

  auto fatal = [&](const hs::Status& s) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    w.reset();
    fs::remove_all(workdir, ec);
    return 1;
  };

  // Set-up: repeated fresh constructions; the median is the metric.
  std::vector<double> setup_totals;
  std::map<std::string, std::vector<double>> setup_parts;
  for (int i = 0; i < kSetupSamples; ++i) {
    auto s = w->SetupOnce(args.trace);
    if (!s.ok()) return fatal(s.status());
    setup_totals.push_back(s.value().total_s);
    for (const auto& [k, v] : s.value().parts) setup_parts[k].push_back(v);
  }
  if (hs::Status s = w->Prepare(); !s.ok()) return fatal(s);

  Checker check;
  Rep warmup = w->RunRep(nullptr);
  check.Expect(warmup.error.empty(), "warm-up rep failed: " + warmup.error);
  // Read after a fixed amount of work. Later reps repeat the same work,
  // but a TargetServer keeps each finished session's thread until it
  // stops, so at the end of the window the peak would grow with the
  // number of reps, that is with host speed.
  const double peak_rss_mb = PeakRssMb();
  const double rss_before_window = RssMb();
  std::printf("warm-up: %" PRIu64 " %s in %.3f s, modeled %.9g s, "
              "exact-output digest %016" PRIx64 "\n",
              warmup.ops, w->op_name(), warmup.wall_s, warmup.modeled_s,
              Digest(warmup.exact));

  // Timed window. In trace mode untraced and traced reps alternate so the
  // host's drift hits both halves of the overhead figure alike.
  std::vector<Rep> plain, traced;
  const Clock::time_point window = Clock::now();
  while (plain.empty() || (args.trace && traced.empty()) ||
         Since(window) < args.seconds) {
    const bool traced_rep = args.trace && traced.size() < plain.size();
    MeterRegistry meters;
    Rep rep = w->RunRep(traced_rep ? &meters : nullptr);
    if (!rep.error.empty()) {
      check.Expect(false, "rep failed: " + rep.error);
    } else if (rep.exact != warmup.exact) {
      check.Expect(false, std::string(traced_rep ? "traced" : "untraced") +
                              " rep's exact outputs differ from the "
                              "warm-up rep's");
      for (const auto& [k, v] : rep.exact) {
        auto it = warmup.exact.find(k);
        if (it == warmup.exact.end() || it->second != v)
          std::printf("  %s: warm-up %s, rep %s\n", k.c_str(),
                      it == warmup.exact.end() ? "-" : it->second.c_str(),
                      v.c_str());
      }
    }
    std::printf("rep %zu%s: %" PRIu64 " %s in %.3f s (%.1f/s)\n",
                plain.size() + traced.size(), traced_rep ? " traced" : "",
                rep.ops, w->op_name(), rep.wall_s, rep.ops / rep.wall_s);
    (traced_rep ? traced : plain).push_back(std::move(rep));
  }
  // Resident memory the timed reps left behind, per rep. Fixed work per
  // rep should leave none; it shows, for one, the session threads a
  // TargetServer keeps until it stops (fuzz-remote).
  const double rss_growth_mb_per_rep =
      (RssMb() - rss_before_window) / (plain.size() + traced.size());
  w->Check(&check);

  uint64_t attempted = 0, failed = 0;
  auto rates = [](const std::vector<Rep>& reps) {
    std::vector<double> r;
    for (const Rep& rep : reps) r.push_back(rep.ops / rep.wall_s);
    return r;
  };
  for (const auto* set : {&plain, &traced})
    for (const Rep& rep : *set) {
      attempted += rep.ops;
      failed += rep.failed;
    }

  Values values;
  const double ops_per_s = Median(rates(plain));
  if (!args.trace) {
    values["ops_per_s"] = ops_per_s;
    values["setup_s"] = Median(setup_totals);
    values["peak_rss_mb"] = peak_rss_mb;
    values["modeled_s"] = warmup.modeled_s;
  } else {
    values["setup.first_s"] = setup_totals.front();
    for (const auto& [k, v] : setup_parts) values[k] = Median(v);
    const double traced_rate = Median(rates(traced));
    values["trace.ops_per_s"] = traced_rate;
    values["trace.overhead_pct"] = 100.0 * (ops_per_s - traced_rate) / ops_per_s;
    values["mem.rss_growth_mb_per_rep"] = rss_growth_mb_per_rep;
    std::map<std::string, std::vector<double>> layers;
    for (const Rep& rep : traced)
      for (const auto& [k, v] : rep.layers) layers[k].push_back(v);
    for (const auto& [k, v] : layers) values[k] = Median(v);
  }
  std::printf("setup: median %.6f s over %d samples (first %.6f s)\n",
              Median(setup_totals), kSetupSamples, setup_totals.front());
  std::printf("ops_per_s: median %.3f over %zu untraced rep(s)\n", ops_per_s,
              plain.size());

  w.reset();
  fs::remove_all(workdir, ec);
  PrintResult(check.ok(), attempted, failed, values, args.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
