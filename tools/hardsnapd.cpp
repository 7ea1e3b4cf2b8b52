// hardsnapd — remote target daemon.
//
// Hosts a pool of HardSnap targets (simulated SoCs, or the modeled FPGA
// back-end) behind the framed RPC protocol in src/remote, one isolated
// target per client session. Campaign workers connect with
// `hardsnap fuzz ... --connect=ADDR`.
//
//   hardsnapd --serve=ADDR [options]
//
// Options:
//   --serve=ADDR            listen address: tcp:host:port or unix:/path
//                           (tcp port 0 picks a free port, printed on
//                           startup)
//   --targets=N             max concurrent sessions (default 8)
//   --target=sim|fpga       hosted back-end kind (default sim)
//   --stats-interval=SECS   periodic counters line to stderr (default off)
//   --fault-rate=P          inject frame drops AND corruptions, each with
//                           probability P, on the modeled device link
//   --fault-seed=N          RNG seed for the fault schedule
//   --mmio-deadline=USEC    per-operation retry budget beyond the clean
//                           transfer cost, in microseconds
//
// Lifecycle: SIGINT/SIGTERM drains — in-flight requests complete, new
// sessions are refused with kUnavailable (clients fail over), then the
// process exits. A second signal aborts immediately.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bus/sim_target.h"
#include "fpga/fpga_target.h"
#include "net/address.h"
#include "periph/periph.h"
#include "remote/server.h"
#include "rtl/elaborate.h"
#include "snapshot/snapshot.h"

using namespace hardsnap;

namespace {

std::atomic<bool> g_stop{false};
std::atomic<int> g_signal_count{0};

extern "C" void OnStopSignal(int /*signum*/) {
  if (g_signal_count.fetch_add(1) > 0) _exit(130);
  g_stop.store(true);
}

struct ServeConfig {
  std::string listen;            // net::Address spec
  unsigned targets = 8;          // max concurrent sessions
  bool fpga = false;             // hosted back-end kind
  unsigned stats_interval_seconds = 0;
  bus::LinkConfig link;          // modeled-link config for hosted targets
};

void PrintServerStats(const remote::TargetServer& server) {
  const remote::ServerStats s = server.stats();
  const double avg_us =
      s.rpcs ? static_cast<double>(s.rpc_wall_micros) / s.rpcs : 0.0;
  std::fprintf(stderr,
               "[hardsnapd] sessions %u active (%llu accepted, %llu refused), "
               "rpcs %llu (%llu ops, %.1f us avg), in %llu B, out %llu B, "
               "protocol errors %llu\n",
               server.active_sessions(),
               static_cast<unsigned long long>(s.sessions_accepted),
               static_cast<unsigned long long>(s.sessions_refused),
               static_cast<unsigned long long>(s.rpcs),
               static_cast<unsigned long long>(s.batched_ops), avg_us,
               static_cast<unsigned long long>(s.bytes_received),
               static_cast<unsigned long long>(s.bytes_sent),
               static_cast<unsigned long long>(s.protocol_errors));
}

int Usage() {
  std::fprintf(stderr,
               "usage: hardsnapd --serve=ADDR [--targets=N] "
               "[--target=sim|fpga] [--stats-interval=SECS] [--fault-rate=P] "
               "[--fault-seed=N] [--mmio-deadline=USEC]\n"
               "(see the header of tools/hardsnapd.cpp)\n");
  return 2;
}

bool OptValue(const std::string& arg, const char* key, std::string* value) {
  const std::string prefix = std::string("--") + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServeConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], v;
    if (OptValue(arg, "serve", &v)) {
      config.listen = v;
    } else if (OptValue(arg, "targets", &v)) {
      config.targets = static_cast<unsigned>(std::stoul(v, nullptr, 0));
    } else if (OptValue(arg, "target", &v)) {
      if (v == "sim") config.fpga = false;
      else if (v == "fpga") config.fpga = true;
      else return Usage();
    } else if (OptValue(arg, "stats-interval", &v)) {
      config.stats_interval_seconds =
          static_cast<unsigned>(std::stoul(v, nullptr, 0));
    } else if (OptValue(arg, "fault-rate", &v)) {
      const double rate = std::stod(v);
      if (rate < 0.0 || rate > 1.0) {
        std::fprintf(stderr, "--fault-rate must be in [0,1]\n");
        return 2;
      }
      config.link.faults.drop_rate = rate;
      config.link.faults.corrupt_rate = rate;
    } else if (OptValue(arg, "fault-seed", &v)) {
      config.link.faults.seed = std::stoull(v, nullptr, 0);
    } else if (OptValue(arg, "mmio-deadline", &v)) {
      config.link.retry.deadline = Duration::Micros(std::stod(v));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (config.listen.empty()) return Usage();

  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);

  auto addr = net::Address::Parse(config.listen);
  if (!addr.ok()) {
    std::fprintf(stderr, "%s\n", addr.status().ToString().c_str());
    return 1;
  }
  auto soc =
      rtl::CompileVerilog(periph::BuildSoc(periph::DefaultCorpus()), "soc");
  if (!soc.ok()) {
    std::fprintf(stderr, "%s\n", soc.status().ToString().c_str());
    return 1;
  }
  const rtl::Design& design = soc.value();

  remote::TargetServerOptions sopts;
  sopts.max_sessions = config.targets;
  sopts.shape_digest = snapshot::StateShapeDigest(design);

  remote::TargetFactory factory = [&design, fpga = config.fpga,
                                   link = config.link]()
      -> Result<std::unique_ptr<bus::HardwareTarget>> {
    if (fpga) {
      fpga::FpgaTargetOptions topts;
      topts.link = link;
      HS_ASSIGN_OR_RETURN(auto t, fpga::FpgaTarget::Create(design, topts));
      return std::unique_ptr<bus::HardwareTarget>(std::move(t));
    }
    bus::SimulatorTargetOptions topts;
    topts.link = link;
    HS_ASSIGN_OR_RETURN(auto t, bus::SimulatorTarget::Create(design, topts));
    return std::unique_ptr<bus::HardwareTarget>(std::move(t));
  };

  auto server = remote::TargetServer::Start(addr.value(), factory, sopts);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("hardsnapd: %s target pool (%u sessions) on %s\n",
              config.fpga ? "fpga" : "sim", config.targets,
              server.value()->bound().ToString().c_str());
  std::fflush(stdout);

  auto last_stats = std::chrono::steady_clock::now();
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (config.stats_interval_seconds == 0) continue;
    const auto now = std::chrono::steady_clock::now();
    if (now - last_stats >=
        std::chrono::seconds(config.stats_interval_seconds)) {
      PrintServerStats(*server.value());
      last_stats = now;
    }
  }

  std::fprintf(stderr, "[hardsnapd] draining...\n");
  server.value()->Drain();
  server.value()->Stop();
  PrintServerStats(*server.value());
  return 0;
}
