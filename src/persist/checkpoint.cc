#include "persist/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"

namespace hardsnap::persist {

namespace {

// Journal record types.
constexpr uint8_t kRecordFuzzAck = 1;
constexpr uint8_t kRecordSymexReport = 2;

void PutByteVector(ByteWriter* w, const std::vector<uint8_t>& v) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  w->PutBytes(v.data(), v.size());
}

Result<std::vector<uint8_t>> GetByteVector(ByteReader* r) {
  auto n = r->GetU32();
  if (!n.ok()) return n.status();
  if (r->remaining() < n.value())
    return OutOfRange("byte vector truncated");
  std::vector<uint8_t> v(n.value());
  HS_RETURN_IF_ERROR(r->GetBytes(v.data(), v.size()));
  return v;
}

void PutDouble(ByteWriter* w, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  w->PutU64(bits);
}

Result<double> GetDouble(ByteReader* r) {
  auto bits = r->GetU64();
  if (!bits.ok()) return bits.status();
  double d = 0;
  const uint64_t v = bits.value();
  std::memcpy(&d, &v, sizeof d);
  return d;
}

void PutTestCase(ByteWriter* w, const symex::TestCase& tc) {
  w->PutString(tc.origin);
  w->PutU32(static_cast<uint32_t>(tc.inputs.size()));
  for (const auto& [name, value] : tc.inputs) {
    w->PutString(name);
    w->PutU64(value);
  }
}

Result<symex::TestCase> GetTestCase(ByteReader* r) {
  symex::TestCase tc;
  HS_ASSIGN_OR_RETURN(tc.origin, r->GetString());
  auto n = r->GetU32();
  if (!n.ok()) return n.status();
  for (uint32_t i = 0; i < n.value(); ++i) {
    auto name = r->GetString();
    if (!name.ok()) return name.status();
    auto value = r->GetU64();
    if (!value.ok()) return value.status();
    tc.inputs[name.value()] = value.value();
  }
  return tc;
}

void PutLinkStats(ByteWriter* w, const bus::LinkStats& s) {
  w->PutU64(s.frames_sent);
  w->PutU64(s.retransmits);
  w->PutU64(s.drops);
  w->PutU64(s.corruptions);
  w->PutU64(s.crc_rejects);
  w->PutU64(s.stalls);
  w->PutU64(s.outages);
  w->PutU64(s.dedup_hits);
  w->PutU64(s.deadline_breaches);
  w->PutU64(s.failed_ops);
}

Result<bus::LinkStats> GetLinkStats(ByteReader* r) {
  bus::LinkStats s;
  for (uint64_t* field :
       {&s.frames_sent, &s.retransmits, &s.drops, &s.corruptions,
        &s.crc_rejects, &s.stalls, &s.outages, &s.dedup_hits,
        &s.deadline_breaches, &s.failed_ops}) {
    auto v = r->GetU64();
    if (!v.ok()) return v.status();
    *field = v.value();
  }
  return s;
}

// Container CRC discipline, identical to the snapshot blobs: trailer over
// everything before it, verified before any field is trusted.
void AppendCrc(ByteWriter* w) {
  w->PutU32(Crc32(w->bytes().data(), w->bytes().size()));
}

Status VerifyCrc(const std::vector<uint8_t>& bytes, const char* what) {
  if (bytes.size() < 4)
    return DataLoss(std::string(what) + ": too short for a CRC trailer");
  const size_t body = bytes.size() - 4;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) stored |= uint32_t{bytes[body + i]} << (8 * i);
  if (stored != Crc32(bytes.data(), body))
    return DataLoss(std::string(what) + ": CRC mismatch (corrupt blob)");
  return Status::Ok();
}

}  // namespace

void PutFinding(ByteWriter* w, const campaign::CampaignFinding& finding) {
  w->PutU32(finding.crash.pc);
  w->PutString(finding.crash.reason);
  PutByteVector(w, finding.crash.input);
  w->PutU32(finding.worker);
  w->PutU64(finding.worker_seed);
  w->PutU64(finding.execs_at_find);
}

Result<campaign::CampaignFinding> GetFinding(ByteReader* r) {
  campaign::CampaignFinding f;
  auto pc = r->GetU32();
  if (!pc.ok()) return pc.status();
  f.crash.pc = pc.value();
  HS_ASSIGN_OR_RETURN(f.crash.reason, r->GetString());
  HS_ASSIGN_OR_RETURN(f.crash.input, GetByteVector(r));
  auto worker = r->GetU32();
  if (!worker.ok()) return worker.status();
  f.worker = worker.value();
  auto seed = r->GetU64();
  if (!seed.ok()) return seed.status();
  f.worker_seed = seed.value();
  auto execs = r->GetU64();
  if (!execs.ok()) return execs.status();
  f.execs_at_find = execs.value();
  return f;
}

void PutSymexReport(ByteWriter* w, const symex::Report& report) {
  w->PutU32(static_cast<uint32_t>(report.bugs.size()));
  for (const symex::Bug& bug : report.bugs) {
    w->PutU32(bug.pc);
    w->PutString(bug.kind);
    w->PutString(bug.detail);
    PutTestCase(w, bug.test_case);
  }
  w->PutU32(static_cast<uint32_t>(report.test_cases.size()));
  for (const symex::TestCase& tc : report.test_cases) PutTestCase(w, tc);
  w->PutU64(report.paths_completed);
  w->PutU64(report.paths_exited);
  w->PutU32(static_cast<uint32_t>(report.exit_codes.size()));
  for (uint32_t code : report.exit_codes) w->PutU32(code);
  w->PutU64(report.forks);
  w->PutU64(report.instructions);
  w->PutU64(report.interrupts_served);
  w->PutU64(report.hw_context_switches);
  w->PutU64(report.replayed_instructions);
  w->PutU64(report.reboots);
  w->PutU64(report.concretizations);
  w->PutU64(report.solver_queries);
  w->PutU64(report.covered_pcs);
  w->PutU64(report.snapshot_bytes_copied);
  w->PutU64(report.snapshot_bytes_shared);
  PutDouble(w, report.snapshot_dedup_ratio);
  w->PutU64(static_cast<uint64_t>(report.analysis_hw_time.picos()));
  w->PutU64(static_cast<uint64_t>(report.replay_overhead.picos()));
  PutLinkStats(w, report.link);
  w->PutString(report.console);
}

Result<symex::Report> GetSymexReport(ByteReader* r) {
  symex::Report report;
  auto nbugs = r->GetU32();
  if (!nbugs.ok()) return nbugs.status();
  for (uint32_t i = 0; i < nbugs.value(); ++i) {
    symex::Bug bug;
    auto pc = r->GetU32();
    if (!pc.ok()) return pc.status();
    bug.pc = pc.value();
    HS_ASSIGN_OR_RETURN(bug.kind, r->GetString());
    HS_ASSIGN_OR_RETURN(bug.detail, r->GetString());
    HS_ASSIGN_OR_RETURN(bug.test_case, GetTestCase(r));
    report.bugs.push_back(std::move(bug));
  }
  auto ntc = r->GetU32();
  if (!ntc.ok()) return ntc.status();
  for (uint32_t i = 0; i < ntc.value(); ++i) {
    HS_ASSIGN_OR_RETURN(symex::TestCase tc, GetTestCase(r));
    report.test_cases.push_back(std::move(tc));
  }
  for (uint64_t* field : {&report.paths_completed, &report.paths_exited}) {
    auto v = r->GetU64();
    if (!v.ok()) return v.status();
    *field = v.value();
  }
  auto ncodes = r->GetU32();
  if (!ncodes.ok()) return ncodes.status();
  if (r->remaining() < size_t{ncodes.value()} * 4)
    return OutOfRange("exit code list truncated");
  for (uint32_t i = 0; i < ncodes.value(); ++i) {
    auto code = r->GetU32();
    if (!code.ok()) return code.status();
    report.exit_codes.push_back(code.value());
  }
  for (uint64_t* field :
       {&report.forks, &report.instructions, &report.interrupts_served,
        &report.hw_context_switches, &report.replayed_instructions,
        &report.reboots, &report.concretizations, &report.solver_queries,
        &report.covered_pcs, &report.snapshot_bytes_copied,
        &report.snapshot_bytes_shared}) {
    auto v = r->GetU64();
    if (!v.ok()) return v.status();
    *field = v.value();
  }
  HS_ASSIGN_OR_RETURN(report.snapshot_dedup_ratio, GetDouble(r));
  auto hw_time = r->GetU64();
  if (!hw_time.ok()) return hw_time.status();
  report.analysis_hw_time =
      Duration::Picos(static_cast<int64_t>(hw_time.value()));
  auto overhead = r->GetU64();
  if (!overhead.ok()) return overhead.status();
  report.replay_overhead =
      Duration::Picos(static_cast<int64_t>(overhead.value()));
  HS_ASSIGN_OR_RETURN(report.link, GetLinkStats(r));
  HS_ASSIGN_OR_RETURN(report.console, r->GetString());
  return report;
}

std::vector<uint8_t> SerializeCheckpoint(const CampaignDurableState& state) {
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU8(kCheckpointFormatVersion);
  w.PutU8(state.kind);
  w.PutU64(state.fingerprint);
  w.PutU32(static_cast<uint32_t>(state.worker_done.size()));
  w.PutU64Vector(state.worker_done);
  w.PutU64Vector(state.worker_rng_digest);
  w.PutU64Vector({state.edges.begin(), state.edges.end()});
  w.PutU32(static_cast<uint32_t>(state.offers.size()));
  for (const DurableOffer& offer : state.offers) {
    w.PutU32(offer.worker);
    PutByteVector(&w, offer.input);
  }
  w.PutU32(static_cast<uint32_t>(state.findings.size()));
  for (const auto& finding : state.findings) PutFinding(&w, finding);
  PutByteVector(&w, state.store_blob);
  w.PutU32(static_cast<uint32_t>(state.symex_reports.size()));
  for (const auto& [worker, report] : state.symex_reports) {
    w.PutU32(worker);
    PutSymexReport(&w, report);
  }
  AppendCrc(&w);
  return w.Take();
}

Result<CampaignDurableState> DeserializeCheckpoint(
    const std::vector<uint8_t>& bytes) {
  HS_RETURN_IF_ERROR(VerifyCrc(bytes, "checkpoint"));
  ByteReader r(bytes);
  auto magic = r.GetU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kCheckpointMagic)
    return InvalidArgument("not a HardSnap checkpoint (HSCP) blob");
  auto version = r.GetU8();
  if (!version.ok()) return version.status();
  if (version.value() != kCheckpointFormatVersion)
    return InvalidArgument("unsupported HSCP format version " +
                           std::to_string(version.value()));
  CampaignDurableState state;
  auto kind = r.GetU8();
  if (!kind.ok()) return kind.status();
  state.kind = kind.value();
  if (state.kind != kCampaignKindFuzz && state.kind != kCampaignKindSymex)
    return InvalidArgument("unknown campaign kind in checkpoint");
  auto fingerprint = r.GetU64();
  if (!fingerprint.ok()) return fingerprint.status();
  state.fingerprint = fingerprint.value();
  auto workers = r.GetU32();
  if (!workers.ok()) return workers.status();
  HS_ASSIGN_OR_RETURN(state.worker_done, r.GetU64Vector());
  HS_ASSIGN_OR_RETURN(state.worker_rng_digest, r.GetU64Vector());
  if (state.worker_done.size() != workers.value() ||
      state.worker_rng_digest.size() != workers.value())
    return InvalidArgument("checkpoint worker vectors disagree on count");
  HS_ASSIGN_OR_RETURN(std::vector<uint64_t> edges, r.GetU64Vector());
  state.edges.insert(edges.begin(), edges.end());
  auto noffers = r.GetU32();
  if (!noffers.ok()) return noffers.status();
  for (uint32_t i = 0; i < noffers.value(); ++i) {
    DurableOffer offer;
    auto worker = r.GetU32();
    if (!worker.ok()) return worker.status();
    offer.worker = worker.value();
    HS_ASSIGN_OR_RETURN(offer.input, GetByteVector(&r));
    state.seen_inputs.insert(offer.input);
    state.offers.push_back(std::move(offer));
  }
  auto nfindings = r.GetU32();
  if (!nfindings.ok()) return nfindings.status();
  for (uint32_t i = 0; i < nfindings.value(); ++i) {
    HS_ASSIGN_OR_RETURN(campaign::CampaignFinding f, GetFinding(&r));
    state.findings.push_back(std::move(f));
  }
  HS_ASSIGN_OR_RETURN(state.store_blob, GetByteVector(&r));
  auto nreports = r.GetU32();
  if (!nreports.ok()) return nreports.status();
  for (uint32_t i = 0; i < nreports.value(); ++i) {
    auto worker = r.GetU32();
    if (!worker.ok()) return worker.status();
    HS_ASSIGN_OR_RETURN(symex::Report report, GetSymexReport(&r));
    state.symex_reports.emplace(worker.value(), std::move(report));
  }
  if (r.remaining() != 4)  // exactly the CRC trailer must remain
    return InvalidArgument("trailing bytes in checkpoint blob");
  return state;
}

std::vector<uint8_t> SerializeFuzzAckRecord(const FuzzBatchAck& ack) {
  ByteWriter w;
  w.PutU8(kRecordFuzzAck);
  w.PutU32(ack.worker);
  w.PutU64(ack.done);
  w.PutU64(ack.rng_digest);
  w.PutU64Vector(ack.fresh_edges);
  w.PutU32(static_cast<uint32_t>(ack.new_inputs.size()));
  for (const auto& input : ack.new_inputs) PutByteVector(&w, input);
  w.PutU32(static_cast<uint32_t>(ack.new_findings.size()));
  for (const auto& finding : ack.new_findings) PutFinding(&w, finding);
  return w.Take();
}

std::vector<uint8_t> SerializeSymexReportRecord(uint32_t worker,
                                                const symex::Report& report) {
  ByteWriter w;
  w.PutU8(kRecordSymexReport);
  w.PutU32(worker);
  PutSymexReport(&w, report);
  return w.Take();
}

Status ApplyRecord(const std::vector<uint8_t>& record,
                   CampaignDurableState* state) {
  ByteReader r(record);
  auto type = r.GetU8();
  if (!type.ok()) return type.status();
  switch (type.value()) {
    case kRecordFuzzAck: {
      auto worker = r.GetU32();
      if (!worker.ok()) return worker.status();
      if (worker.value() >= state->worker_done.size())
        return InvalidArgument("journal record for out-of-range worker");
      auto done = r.GetU64();
      if (!done.ok()) return done.status();
      auto rng = r.GetU64();
      if (!rng.ok()) return rng.status();
      HS_ASSIGN_OR_RETURN(std::vector<uint64_t> edges, r.GetU64Vector());
      auto ninputs = r.GetU32();
      if (!ninputs.ok()) return ninputs.status();
      std::vector<std::vector<uint8_t>> inputs;
      for (uint32_t i = 0; i < ninputs.value(); ++i) {
        HS_ASSIGN_OR_RETURN(std::vector<uint8_t> input, GetByteVector(&r));
        inputs.push_back(std::move(input));
      }
      auto nfindings = r.GetU32();
      if (!nfindings.ok()) return nfindings.status();
      std::vector<campaign::CampaignFinding> findings;
      for (uint32_t i = 0; i < nfindings.value(); ++i) {
        HS_ASSIGN_OR_RETURN(campaign::CampaignFinding f, GetFinding(&r));
        findings.push_back(std::move(f));
      }
      if (!r.AtEnd()) return InvalidArgument("trailing bytes in ack record");
      // Idempotent fold: progress is a max, findings merge by MergeFinding
      // (the live SharedCorpus rule), everything else dedups.
      if (done.value() >= state->worker_done[worker.value()]) {
        state->worker_done[worker.value()] = done.value();
        state->worker_rng_digest[worker.value()] = rng.value();
      }
      state->edges.insert(edges.begin(), edges.end());
      for (auto& input : inputs)
        if (state->seen_inputs.insert(input).second)
          state->offers.push_back({worker.value(), std::move(input)});
      for (auto& finding : findings)
        campaign::MergeFinding(&state->findings, std::move(finding));
      return Status::Ok();
    }
    case kRecordSymexReport: {
      auto worker = r.GetU32();
      if (!worker.ok()) return worker.status();
      if (worker.value() >= state->worker_done.size())
        return InvalidArgument("journal record for out-of-range worker");
      HS_ASSIGN_OR_RETURN(symex::Report report, GetSymexReport(&r));
      if (!r.AtEnd())
        return InvalidArgument("trailing bytes in symex record");
      state->symex_reports.emplace(worker.value(), std::move(report));
      state->worker_done[worker.value()] = 1;  // completed marker
      return Status::Ok();
    }
    default:
      return InvalidArgument("unknown journal record type " +
                             std::to_string(type.value()));
  }
}

}  // namespace hardsnap::persist
