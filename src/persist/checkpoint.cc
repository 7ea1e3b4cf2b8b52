#include "persist/checkpoint.h"

#include <bit>

namespace hardsnap::persist {

namespace {

// The container CRC discipline is the snapshot blobs': a trailer over
// everything before it, verified before any field is trusted.
constexpr Envelope kCheckpointEnvelope{kCheckpointMagic,
                                       kCheckpointFormatVersion, "checkpoint"};

// Journal record types.
constexpr uint8_t kRecordFuzzAck = 1;
constexpr uint8_t kRecordSymexReport = 2;

// A Duration travels as its picosecond count, a double as its bits.
template <class Io, class D>
void XferPicos(Io& io, D& d) {
  uint64_t ps = static_cast<uint64_t>(d.picos());
  io.U64(ps);
  if constexpr (Io::kReading) d = Duration::Picos(static_cast<int64_t>(ps));
}

template <class Io, class F>
void XferBits(Io& io, F& x) {
  uint64_t bits = std::bit_cast<uint64_t>(x);
  io.U64(bits);
  if constexpr (Io::kReading) x = std::bit_cast<double>(bits);
}

// The List bounds below are lower bounds on an element's encoded size.

template <class Io, RecordOf<symex::TestCase> T>
void Xfer(Io& io, T& tc) {
  io.Str(tc.origin);
  io.List(tc.inputs, 12, [](auto& io, auto& input) {
    io.Str(input.first);
    io.U64(input.second);
  });
}

template <class Io, RecordOf<bus::LinkStats> T>
void Xfer(Io& io, T& s) {
  for (auto* field :
       {&s.frames_sent, &s.retransmits, &s.drops, &s.corruptions,
        &s.crc_rejects, &s.stalls, &s.outages, &s.dedup_hits,
        &s.deadline_breaches, &s.failed_ops})
    io.U64(*field);
}

template <class Io, RecordOf<symex::Report> T>
void Xfer(Io& io, T& report) {
  io.List(report.bugs, 20, [](auto& io, auto& bug) {
    io.U32(bug.pc);
    io.Str(bug.kind);
    io.Str(bug.detail);
    Xfer(io, bug.test_case);
  });
  io.List(report.test_cases, 8, [](auto& io, auto& tc) { Xfer(io, tc); });
  io.U64(report.paths_completed);
  io.U64(report.paths_exited);
  io.List(report.exit_codes, 4, [](auto& io, auto& code) { io.U32(code); });
  for (auto* field :
       {&report.forks, &report.instructions, &report.interrupts_served,
        &report.hw_context_switches, &report.replayed_instructions,
        &report.reboots, &report.concretizations, &report.solver_queries,
        &report.covered_pcs, &report.snapshot_bytes_copied,
        &report.snapshot_bytes_shared})
    io.U64(*field);
  XferBits(io, report.snapshot_dedup_ratio);
  XferPicos(io, report.analysis_hw_time);
  XferPicos(io, report.replay_overhead);
  Xfer(io, report.link);
  io.Str(report.console);
}

template <class Io, RecordOf<campaign::CampaignFinding> T>
void Xfer(Io& io, T& f) {
  io.U32(f.crash.pc);
  io.Str(f.crash.reason);
  io.Blob(f.crash.input);
  io.U32(f.worker);
  io.U64(f.worker_seed);
  io.U64(f.execs_at_find);
}

template <class Io, RecordOf<CampaignDurableState> T>
void Xfer(Io& io, T& st) {
  io.U8In(st.kind, kCampaignKindFuzz, kCampaignKindSymex,
          "unknown campaign kind in checkpoint");
  io.U64(st.fingerprint);
  uint32_t workers = static_cast<uint32_t>(st.worker_done.size());
  io.U32(workers);
  io.U64s(st.worker_done);
  io.U64s(st.worker_rng_digest);
  io.Require(st.worker_done.size() == workers &&
                 st.worker_rng_digest.size() == workers,
             "checkpoint worker vectors disagree on count");
  io.List(st.edges, 8, [](auto& io, auto& edge) { io.U64(edge); });
  io.List(st.offers, 8, [](auto& io, auto& offer) {
    io.U32(offer.worker);
    io.Blob(offer.input);
  });
  io.List(st.findings, 32, [](auto& io, auto& f) { Xfer(io, f); });
  io.Blob(st.store_blob);
  io.List(st.symex_reports, 8, [](auto& io, auto& entry) {
    io.U32(entry.first);
    Xfer(io, entry.second);
  });
}

template <class Io, RecordOf<FuzzBatchAck> T>
void Xfer(Io& io, T& ack) {
  io.U32(ack.worker);
  io.U64(ack.done);
  io.U64(ack.rng_digest);
  io.U64s(ack.fresh_edges);
  io.List(ack.new_inputs, 4, [](auto& io, auto& input) { io.Blob(input); });
  io.List(ack.new_findings, 32, [](auto& io, auto& f) { Xfer(io, f); });
}

// The symex-report record's fields: the worker, then its report.
template <class Io, class Worker, class Report>
void XferSymexRecord(Io& io, Worker& worker, Report& report) {
  io.U32(worker);
  Xfer(io, report);
}

Status CheckWorker(uint32_t worker, const CampaignDurableState& state) {
  if (worker >= state.worker_done.size())
    return InvalidArgument("journal record for out-of-range worker");
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> SerializeCheckpoint(const CampaignDurableState& state) {
  return kCheckpointEnvelope.Seal([&](ByteWriter& w) { Xfer(w, state); });
}

Result<CampaignDurableState> DeserializeCheckpoint(
    const std::vector<uint8_t>& bytes) {
  CampaignDurableState state;
  HS_RETURN_IF_ERROR(
      kCheckpointEnvelope.Open(bytes, [&](ByteReader& r) { Xfer(r, state); }));
  for (const DurableOffer& offer : state.offers)
    state.seen_inputs.insert(offer.input);
  return state;
}

std::vector<uint8_t> SerializeFuzzAckRecord(const FuzzBatchAck& ack) {
  ByteWriter w;
  w.U8(kRecordFuzzAck);
  Xfer(w, ack);
  return w.Take();
}

std::vector<uint8_t> SerializeSymexReportRecord(uint32_t worker,
                                                const symex::Report& report) {
  ByteWriter w;
  w.U8(kRecordSymexReport);
  XferSymexRecord(w, worker, report);
  return w.Take();
}

Status ApplyRecord(const std::vector<uint8_t>& record,
                   CampaignDurableState* state) {
  // The whole record decodes before anything folds, so a rejected record
  // leaves `state` as it was.
  ByteReader r(record);
  uint8_t type = 0;
  r.U8In(type, kRecordFuzzAck, kRecordSymexReport,
         "unknown journal record type");
  HS_RETURN_IF_ERROR(r.status());
  if (type == kRecordSymexReport) {
    uint32_t worker = 0;
    symex::Report report;
    XferSymexRecord(r, worker, report);
    HS_RETURN_IF_ERROR(r.Finish("symex record"));
    HS_RETURN_IF_ERROR(CheckWorker(worker, *state));
    state->symex_reports.emplace(worker, std::move(report));
    state->worker_done[worker] = 1;  // completed marker
    return Status::Ok();
  }
  FuzzBatchAck ack;
  Xfer(r, ack);
  HS_RETURN_IF_ERROR(r.Finish("ack record"));
  HS_RETURN_IF_ERROR(CheckWorker(ack.worker, *state));
  // Idempotent fold: progress is a max, findings merge by MergeFinding
  // (the live SharedCorpus rule), everything else dedups.
  if (ack.done >= state->worker_done[ack.worker]) {
    state->worker_done[ack.worker] = ack.done;
    state->worker_rng_digest[ack.worker] = ack.rng_digest;
  }
  state->edges.insert(ack.fresh_edges.begin(), ack.fresh_edges.end());
  for (auto& input : ack.new_inputs)
    if (state->seen_inputs.insert(input).second)
      state->offers.push_back({ack.worker, std::move(input)});
  for (auto& finding : ack.new_findings)
    campaign::MergeFinding(&state->findings, std::move(finding));
  return Status::Ok();
}

}  // namespace hardsnap::persist
