// hardsnap — command-line front end.
//
//   hardsnap run <firmware.s> [options]      symbolic analysis
//   hardsnap fuzz <firmware.s> [options]     snapshot-based fuzzing
//   hardsnap exec <firmware.s> [options]     concrete execution
//   hardsnap info                            SoC + scan chain summary
//
// Remote targets are served by the separate hardsnapd binary
// (tools/hardsnapd.cpp).
//
// Common options:
//   --target=sim|fpga|both      hardware back-end (default sim)
//   --max-instr=N               instruction budget
// run options:
//   --mode=hardsnap|naive-consistent|naive-inconsistent
//   --search=bfs|dfs|random|coverage
//   --symbolic-reg=a0[:name]    make a register symbolic
//   --symbolic-mem=ADDR:LEN[:name]
//   --all-values                completeness concretization policy
// fuzz options:
//   --execs=N  --input-addr=A  --input-size=N  --reset=snapshot|reboot
//   --seed=N                    campaign seed (default 1)
//   --workers=N                 shard the campaign over N worker threads,
//                               each with its own simulated target; every
//                               finding reports the derived worker seed
//                               that replays it single-threaded
//   --share-corpus              let workers adopt each other's inputs
//                               (faster coverage, input-level replay only)
// durability options (fuzz campaigns and run portfolios):
//   --persist=DIR               journal findings/corpus to DIR and write
//                               periodic checkpoints; a killed campaign
//                               restarted with the same DIR resumes from
//                               its last acknowledged state
//   --resume=DIR                like --persist but REQUIRE existing state
//                               in DIR (refuses to silently start fresh)
//   --checkpoint-every=N        compact the journal into a checkpoint
//                               every N journal records (default 16)
//   --max-store-bytes=N         cap the host snapshot store; ingestion
//                               beyond the cap fails with
//                               RESOURCE_EXHAUSTED instead of OOM
// SIGINT/SIGTERM drain workers and flush a final checkpoint; a second
// signal aborts immediately.
// link options (any command that talks to hardware):
//   --fault-rate=P              inject frame drops AND corruptions, each
//                               with probability P (e.g. 0.01), on the
//                               host<->target link; retries mask them
//   --fault-seed=N              RNG seed for the injected fault schedule
//   --mmio-deadline=USEC        per-operation retry budget beyond the
//                               clean transfer cost, in microseconds
// remote options (docs/remote_targets.md):
//   --connect=ADDR[,ADDR...]    fuzz campaigns only: workers drive targets
//                               hosted by hardsnapd at these addresses
//                               (tcp:host:port or unix:/path) instead of
//                               in-process simulators; round-robin across
//                               addresses, automatic fail-over on a lost
//                               connection
//   --stats-interval=SECS       periodic campaign progress line to stderr
//
// Example:
//   hardsnap run driver.s --symbolic-reg=a0 --mode=hardsnap --target=fpga
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/symex_campaign.h"
#include "core/session.h"
#include "fpga/fpga_target.h"
#include "fuzz/fuzzer.h"
#include "net/address.h"
#include "periph/periph.h"
#include "remote/remote_target.h"
#include "rtl/elaborate.h"
#include "vm/cpu.h"

using namespace hardsnap;

namespace {

// Graceful shutdown: the first SIGINT/SIGTERM asks running campaigns to
// drain (workers finish their current batch, the final checkpoint is
// flushed); the second aborts immediately. Only async-signal-safe
// operations here — the campaign prints the resume hint after draining.
std::atomic<bool> g_stop{false};
std::atomic<int> g_signal_count{0};

extern "C" void OnStopSignal(int /*signum*/) {
  if (g_signal_count.fetch_add(1) > 0) _exit(130);
  g_stop.store(true);
}

void InstallStopHandlers() {
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
}

int Usage() {
  std::fprintf(stderr,
               "usage: hardsnap <run|fuzz|exec|info> [firmware.s] "
               "[options]\n(see the header of tools/hardsnap_cli.cpp)\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::stringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

// "--key=value" option helper.
bool OptValue(const std::string& arg, const char* key, std::string* value) {
  const std::string prefix = std::string("--") + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int RegByName(const std::string& name) {
  for (int i = 0; i < 32; ++i) {
    if (name == vm::RegName(static_cast<unsigned>(i))) return i;
    if (name == "x" + std::to_string(i)) return i;
  }
  return -1;
}

uint64_t ParseNum(const std::string& s) {
  return std::stoull(s, nullptr, 0);
}

struct Cli {
  std::string command;
  bool json = false;
  std::string firmware_path;
  core::SessionConfig::Target target = core::SessionConfig::Target::kSimulator;
  symex::ExecOptions exec;
  // symbolic inputs
  std::vector<std::pair<int, std::string>> sym_regs;
  struct MemRegion { uint32_t addr; unsigned len; std::string name; };
  std::vector<MemRegion> sym_mems;
  // fuzz
  uint64_t execs = 1000;
  fuzz::FuzzOptions fuzz;
  unsigned workers = 1;
  uint64_t seed = 1;
  bool share_corpus = false;
  // durable checkpoint/resume (--persist / --resume / --checkpoint-every)
  persist::PersistOptions persist;
  // host<->target transport (applied to every target the command builds)
  bus::LinkConfig link;
  // remote targets (--connect) and campaign progress
  std::vector<std::string> connect;
  unsigned stats_interval = 0;
};

bool ParseArgs(int argc, char** argv, Cli* cli) {
  if (argc < 2) return false;
  cli->command = argv[1];
  int i = 2;
  if (cli->command != "info") {
    if (argc < 3) return false;
    cli->firmware_path = argv[2];
    i = 3;
  }
  for (; i < argc; ++i) {
    std::string arg = argv[i], v;
    if (OptValue(arg, "target", &v)) {
      if (v == "sim") cli->target = core::SessionConfig::Target::kSimulator;
      else if (v == "fpga") cli->target = core::SessionConfig::Target::kFpga;
      else if (v == "both") cli->target = core::SessionConfig::Target::kBoth;
      else return false;
    } else if (OptValue(arg, "mode", &v)) {
      if (v == "hardsnap") cli->exec.mode = symex::ConsistencyMode::kHardSnap;
      else if (v == "naive-consistent")
        cli->exec.mode = symex::ConsistencyMode::kNaiveConsistent;
      else if (v == "naive-inconsistent")
        cli->exec.mode = symex::ConsistencyMode::kNaiveInconsistent;
      else return false;
    } else if (OptValue(arg, "search", &v)) {
      if (v == "bfs") cli->exec.search = symex::SearchStrategy::kBfs;
      else if (v == "dfs") cli->exec.search = symex::SearchStrategy::kDfs;
      else if (v == "random") cli->exec.search = symex::SearchStrategy::kRandom;
      else if (v == "coverage")
        cli->exec.search = symex::SearchStrategy::kCoverage;
      else return false;
    } else if (OptValue(arg, "max-instr", &v)) {
      cli->exec.max_instructions = ParseNum(v);
    } else if (arg == "--json") {
      cli->json = true;
    } else if (arg == "--all-values") {
      cli->exec.concretization = symex::ConcretizationPolicy::kAllValues;
    } else if (OptValue(arg, "symbolic-reg", &v)) {
      const size_t colon = v.find(':');
      const std::string reg = v.substr(0, colon);
      const std::string name =
          colon == std::string::npos ? reg : v.substr(colon + 1);
      const int r = RegByName(reg);
      if (r <= 0) {
        std::fprintf(stderr, "bad register '%s'\n", reg.c_str());
        return false;
      }
      cli->sym_regs.emplace_back(r, name);
    } else if (OptValue(arg, "symbolic-mem", &v)) {
      Cli::MemRegion region;
      const size_t c1 = v.find(':');
      if (c1 == std::string::npos) return false;
      const size_t c2 = v.find(':', c1 + 1);
      region.addr = static_cast<uint32_t>(ParseNum(v.substr(0, c1)));
      region.len = static_cast<unsigned>(
          ParseNum(v.substr(c1 + 1, c2 - c1 - 1)));
      region.name = c2 == std::string::npos ? "mem" : v.substr(c2 + 1);
      cli->sym_mems.push_back(region);
    } else if (OptValue(arg, "execs", &v)) {
      cli->execs = ParseNum(v);
    } else if (OptValue(arg, "input-addr", &v)) {
      cli->fuzz.input_addr = static_cast<uint32_t>(ParseNum(v));
    } else if (OptValue(arg, "input-size", &v)) {
      cli->fuzz.input_size = static_cast<unsigned>(ParseNum(v));
    } else if (OptValue(arg, "workers", &v)) {
      cli->workers = static_cast<unsigned>(ParseNum(v));
    } else if (OptValue(arg, "seed", &v)) {
      cli->seed = ParseNum(v);
    } else if (arg == "--share-corpus") {
      cli->share_corpus = true;
    } else if (OptValue(arg, "persist", &v)) {
      cli->persist.dir = v;
    } else if (OptValue(arg, "resume", &v)) {
      cli->persist.dir = v;
      cli->persist.resume_required = true;
    } else if (OptValue(arg, "checkpoint-every", &v)) {
      cli->persist.checkpoint_every = ParseNum(v);
    } else if (OptValue(arg, "max-store-bytes", &v)) {
      cli->exec.max_store_bytes = ParseNum(v);
    } else if (OptValue(arg, "fault-rate", &v)) {
      const double rate = std::stod(v);
      if (rate < 0.0 || rate > 1.0) {
        std::fprintf(stderr, "--fault-rate must be in [0,1]\n");
        return false;
      }
      cli->link.faults.drop_rate = rate;
      cli->link.faults.corrupt_rate = rate;
    } else if (OptValue(arg, "fault-seed", &v)) {
      cli->link.faults.seed = ParseNum(v);
    } else if (OptValue(arg, "mmio-deadline", &v)) {
      cli->link.retry.deadline = Duration::Micros(std::stod(v));
    } else if (OptValue(arg, "connect", &v)) {
      size_t start = 0;
      while (start <= v.size()) {
        const size_t comma = v.find(',', start);
        const std::string addr =
            v.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
        if (!addr.empty()) cli->connect.push_back(addr);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (cli->connect.empty()) {
        std::fprintf(stderr, "--connect needs at least one address\n");
        return false;
      }
    } else if (OptValue(arg, "stats-interval", &v)) {
      cli->stats_interval = static_cast<unsigned>(ParseNum(v));
    } else if (OptValue(arg, "reset", &v)) {
      if (v == "snapshot") cli->fuzz.reset = fuzz::ResetStrategy::kSnapshotReset;
      else if (v == "reboot") cli->fuzz.reset = fuzz::ResetStrategy::kRebootReset;
      else return false;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int CmdInfo() {
  core::SessionConfig cfg;
  cfg.target = core::SessionConfig::Target::kBoth;
  auto session = core::Session::Create(cfg);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  auto info = session.value()->hardware_info();
  std::printf("HardSnap SoC summary\n");
  std::printf("  peripherals:      timer, uart, aes128, sha256\n");
  std::printf("  signals:          %u\n", info.soc_stats.num_signals);
  std::printf("  flip-flops:       %u (%u bits)\n", info.soc_stats.num_flops,
              info.soc_stats.num_flop_bits);
  std::printf("  memories:         %u (%u bits)\n",
              info.soc_stats.num_memories, info.soc_stats.num_memory_bits);
  std::printf("  expression nodes: %u\n", info.soc_stats.num_expr_nodes);
  std::printf("  scan chain:       %u bits + %u memory words\n",
              info.scan_chain_bits, info.scan_mem_words);
  auto* f = session.value()->fpga_target();
  std::printf("  scan pass cost:   %s\n",
              f->ScanPassCost().ToString().c_str());
  std::printf("  readback cost:    %s\n",
              f->ReadbackCost().ToString().c_str());
  return 0;
}

int CmdRun(const Cli& cli) {
  std::string source;
  if (!ReadFile(cli.firmware_path, &source)) {
    std::fprintf(stderr, "cannot read %s\n", cli.firmware_path.c_str());
    return 1;
  }
  core::SessionConfig cfg;
  cfg.target = cli.target;
  cfg.exec = cli.exec;
  cfg.simulator_options.link = cli.link;
  cfg.fpga_options.link = cli.link;
  auto session = core::Session::Create(cfg);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 1;
  }
  if (auto s = session.value()->LoadFirmwareAsm(source); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  for (const auto& [reg, name] : cli.sym_regs)
    session.value()->MakeSymbolicRegister(static_cast<unsigned>(reg), name);
  for (const auto& region : cli.sym_mems) {
    if (auto s = session.value()->MakeSymbolicRegion(region.addr, region.len,
                                                     region.name);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  // Portfolio path: N cloned sessions, optionally durable at worker
  // granularity (--persist/--resume journal completed worker reports).
  if (cli.workers > 1 || !cli.persist.dir.empty()) {
    campaign::SymexCampaignOptions sopts;
    sopts.workers = cli.workers;
    sopts.seed = cli.seed;
    sopts.persist = cli.persist;
    auto portfolio = campaign::RunSymexCampaign(*session.value(), sopts);
    if (!portfolio.ok()) {
      std::fprintf(stderr, "%s\n", portfolio.status().ToString().c_str());
      return 1;
    }
    if (portfolio.value().resumed)
      std::printf("resumed from %s (%llu worker reports recovered)\n",
                  cli.persist.dir.c_str(),
                  static_cast<unsigned long long>(
                      portfolio.value().resumed_workers));
    std::printf("%s\n", portfolio.value().Summary().c_str());
    for (const auto& bug : portfolio.value().bugs) {
      std::printf("BUG %-22s pc=0x%08x %s\n", bug.kind.c_str(), bug.pc,
                  bug.detail.c_str());
      for (const auto& [name, value] : bug.test_case.inputs)
        std::printf("    %s = 0x%llx\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    }
    return 0;
  }
  auto report = session.value()->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (cli.json) {
    std::printf("%s\n", report.value().ToJson().c_str());
    return 0;
  }
  std::printf("%s\n", report.value().Summary().c_str());
  if (!report.value().console.empty())
    std::printf("console: %s\n", report.value().console.c_str());
  for (const auto& bug : report.value().bugs) {
    std::printf("BUG %-22s pc=0x%08x %s\n", bug.kind.c_str(), bug.pc,
                bug.detail.c_str());
    for (const auto& [name, value] : bug.test_case.inputs)
      std::printf("    %s = 0x%llx\n", name.c_str(),
                  static_cast<unsigned long long>(value));
  }
  return 0;
}

int CmdExec(const Cli& cli) {
  std::string source;
  if (!ReadFile(cli.firmware_path, &source)) {
    std::fprintf(stderr, "cannot read %s\n", cli.firmware_path.c_str());
    return 1;
  }
  auto img = vm::Assemble(source);
  if (!img.ok()) {
    std::fprintf(stderr, "%s\n", img.status().ToString().c_str());
    return 1;
  }
  core::SessionConfig cfg;
  cfg.target = cli.target;
  cfg.simulator_options.link = cli.link;
  cfg.fpga_options.link = cli.link;
  auto session = core::Session::Create(cfg);
  if (!session.ok()) return 1;
  vm::Cpu cpu(&session.value()->hardware());
  if (!cpu.LoadFirmware(img.value()).ok()) return 1;
  auto out = cpu.Run(cli.exec.max_instructions);
  std::printf("status: %s\n",
              out.status == vm::RunStatus::kExited ? "exited"
              : out.status == vm::RunStatus::kBug ? "BUG"
              : out.status == vm::RunStatus::kWaiting ? "waiting"
              : out.status == vm::RunStatus::kHardwareError ? "HW-ERROR"
                                                            : "budget");
  if (out.status == vm::RunStatus::kExited)
    std::printf("exit code: %u\n", out.exit_code);
  if (out.status == vm::RunStatus::kBug)
    std::printf("fault: %s at pc=0x%08x\n", out.reason.c_str(), out.fault_pc);
  if (out.status == vm::RunStatus::kHardwareError)
    std::printf("hardware: %s at pc=0x%08x\n", out.reason.c_str(),
                out.fault_pc);
  std::printf("instructions: %llu\n",
              static_cast<unsigned long long>(cpu.state().icount));
  if (!cpu.console().empty())
    std::printf("console: %s\n", cpu.console().c_str());
  if (out.status == vm::RunStatus::kHardwareError) return 1;
  return out.status == vm::RunStatus::kBug ? 1 : 0;
}

// Parallel campaign path: N workers, each on its own simulated target.
int CmdFuzzCampaign(const Cli& cli, const vm::FirmwareImage& image) {
  auto soc =
      rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()), "soc");
  if (!soc.ok()) {
    std::fprintf(stderr, "%s\n", soc.status().ToString().c_str());
    return 1;
  }
  campaign::FuzzCampaignOptions opts;
  opts.workers = cli.workers;
  opts.total_execs = cli.execs;
  opts.seed = cli.seed;
  opts.share_corpus = cli.share_corpus;
  opts.fuzz = cli.fuzz;
  opts.simulator_options.link = cli.link;
  opts.persist = cli.persist;
  opts.external_stop = &g_stop;
  opts.stats_interval_seconds = cli.stats_interval;
  if (!cli.connect.empty()) {
    // Remote mode: each worker slice is a session on one of the hardsnapd
    // servers, round-robined by (worker + incarnation) so a fail-over
    // naturally rotates to the next server in the pool.
    std::vector<net::Address> addrs;
    for (const std::string& spec : cli.connect) {
      auto addr = net::Address::Parse(spec);
      if (!addr.ok()) {
        std::fprintf(stderr, "%s\n", addr.status().ToString().c_str());
        return 1;
      }
      addrs.push_back(addr.value());
    }
    auto connections = std::make_shared<std::atomic<uint64_t>>(0);
    auto reconnects = std::make_shared<std::atomic<uint64_t>>(0);
    opts.target_factory = [addrs, connections, reconnects](
                              unsigned worker, uint64_t incarnation)
        -> Result<std::unique_ptr<bus::HardwareTarget>> {
      remote::RemoteTargetOptions ropts;
      ropts.client_name = "hardsnap-worker-" + std::to_string(worker);
      auto target = remote::RemoteTarget::Connect(
          addrs[(worker + incarnation) % addrs.size()], ropts);
      if (!target.ok()) return target.status();
      connections->fetch_add(1, std::memory_order_relaxed);
      if (incarnation > 0) reconnects->fetch_add(1, std::memory_order_relaxed);
      return std::unique_ptr<bus::HardwareTarget>(std::move(target).value());
    };
    opts.stats_extra = [connections, reconnects] {
      return "connections " +
             std::to_string(connections->load(std::memory_order_relaxed)) +
             ", reconnects " +
             std::to_string(reconnects->load(std::memory_order_relaxed));
    };
  }
  InstallStopHandlers();
  campaign::FuzzCampaign campaign(soc.value(), image, opts);
  auto report = campaign.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (report.value().resumed)
    std::printf("resumed from %s (%llu journal records recovered)\n",
                cli.persist.dir.c_str(),
                static_cast<unsigned long long>(
                    report.value().persist_stats.recovered_records));
  std::printf("%s\n", report.value().Summary().c_str());
  if (report.value().interrupted) {
    if (!cli.persist.dir.empty())
      std::printf("interrupted; all acknowledged findings are durable — "
                  "rerun with --resume=%s to continue\n",
                  cli.persist.dir.c_str());
    else
      std::printf("interrupted (use --persist=DIR to make runs "
                  "resumable)\n");
  }
  for (const auto& finding : report.value().findings) {
    std::printf(
        "CRASH pc=0x%08x %s (worker %u; replay: seed=%llu execs=%llu) "
        "input=[",
        finding.crash.pc, finding.crash.reason.c_str(), finding.worker,
        static_cast<unsigned long long>(finding.worker_seed),
        static_cast<unsigned long long>(finding.execs_at_find));
    for (size_t i = 0; i < finding.crash.input.size(); ++i)
      std::printf("%s0x%02x", i ? " " : "", finding.crash.input[i]);
    std::printf("]\n");
  }
  return 0;
}

int CmdFuzz(const Cli& cli) {
  std::string source;
  if (!ReadFile(cli.firmware_path, &source)) {
    std::fprintf(stderr, "cannot read %s\n", cli.firmware_path.c_str());
    return 1;
  }
  auto img = vm::Assemble(source);
  if (!img.ok()) {
    std::fprintf(stderr, "%s\n", img.status().ToString().c_str());
    return 1;
  }
  // Campaign path: multiple workers, any persisted run (durable
  // checkpointing lives in the campaign layer, so --persist/--resume
  // route even a single worker through it), or remote targets
  // (--connect puts every worker on a hardsnapd session).
  if (cli.workers > 1 || !cli.persist.dir.empty() || !cli.connect.empty()) {
    if (cli.connect.empty() &&
        cli.target != core::SessionConfig::Target::kSimulator) {
      std::fprintf(stderr,
                   "--workers/--persist need --target=sim (one simulated "
                   "device per worker) or --connect\n");
      return 1;
    }
    return CmdFuzzCampaign(cli, img.value());
  }
  core::SessionConfig cfg;
  cfg.target = cli.target;
  cfg.simulator_options.link = cli.link;
  cfg.fpga_options.link = cli.link;
  auto session = core::Session::Create(cfg);
  if (!session.ok()) return 1;
  fuzz::FuzzOptions fopts = cli.fuzz;
  fopts.seed = cli.seed;
  fuzz::Fuzzer fuzzer(&session.value()->hardware(), img.value(), fopts);
  auto stats = fuzzer.Run(cli.execs);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "execs=%llu corpus=%llu edges=%llu crashes=%llu reset-overhead=%s\n",
      static_cast<unsigned long long>(stats.value().execs),
      static_cast<unsigned long long>(stats.value().corpus_size),
      static_cast<unsigned long long>(stats.value().edges_covered),
      static_cast<unsigned long long>(stats.value().crashes),
      stats.value().reset_overhead.ToString().c_str());
  for (const auto& crash : fuzzer.crashes()) {
    std::printf("CRASH pc=0x%08x %s input=[", crash.pc, crash.reason.c_str());
    for (size_t i = 0; i < crash.input.size(); ++i)
      std::printf("%s0x%02x", i ? " " : "", crash.input[i]);
    std::printf("]\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!ParseArgs(argc, argv, &cli)) return Usage();
  if (cli.command == "info") return CmdInfo();
  if (cli.command == "run") return CmdRun(cli);
  if (cli.command == "exec") return CmdExec(cli);
  if (cli.command == "fuzz") return CmdFuzz(cli);
  return Usage();
}
