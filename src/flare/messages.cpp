#include "flare/messages.h"

#include "core/error.h"

namespace cppflare::flare {

namespace {

core::ByteWriter begin(MsgType type) {
  core::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(type));
  return w;
}

core::ByteReader expect(std::span<const std::uint8_t> frame, MsgType type) {
  core::ByteReader r(frame);
  const std::uint8_t tag = r.read_u8();
  if (tag != static_cast<std::uint8_t>(type)) {
    throw ProtocolError("expected message type " +
                        std::to_string(static_cast<int>(type)) + ", got " +
                        std::to_string(static_cast<int>(tag)));
  }
  return r;
}

}  // namespace

std::vector<std::uint8_t> pack(const RegisterRequest& m) {
  core::ByteWriter w = begin(MsgType::kRegister);
  w.write_string(m.site_name);
  w.write_string(m.token);
  return w.take();
}

std::vector<std::uint8_t> pack(const RegisterAck& m) {
  core::ByteWriter w = begin(MsgType::kRegisterAck);
  w.write_bool(m.accepted);
  w.write_string(m.session_id);
  w.write_string(m.message);
  return w.take();
}

std::vector<std::uint8_t> pack(const GetTaskRequest& m) {
  core::ByteWriter w = begin(MsgType::kGetTask);
  w.write_string(m.session_id);
  w.write_i64(m.wait_ms);
  return w.take();
}

std::vector<std::uint8_t> pack(const TaskMessage& m) {
  core::ByteWriter w = begin(MsgType::kTask);
  w.write_u8(static_cast<std::uint8_t>(m.task));
  w.write_i64(m.round);
  w.write_i64(m.total_rounds);
  m.payload.serialize(w);
  return w.take();
}

std::vector<std::uint8_t> pack(const SubmitUpdateRequest& m) {
  core::ByteWriter w = begin(MsgType::kSubmitUpdate);
  w.write_string(m.session_id);
  w.write_i64(m.round);
  m.payload.serialize(w);
  return w.take();
}

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kSchemaMismatch: return "schema_mismatch";
    case RejectReason::kNonFinite: return "non_finite";
    case RejectReason::kNormOutlier: return "norm_outlier";
    case RejectReason::kStaleRound: return "stale_round";
    case RejectReason::kBadSampleCount: return "bad_sample_count";
    case RejectReason::kQuarantined: return "quarantined";
    case RejectReason::kDuplicate: return "duplicate";
    case RejectReason::kNotSampled: return "not_sampled";
    case RejectReason::kAggregatorRefused: return "aggregator_refused";
    case RejectReason::kRunOver: return "run_over";
    case RejectReason::kRecoveryInProgress: return "recovery_in_progress";
  }
  return "unknown";
}

std::vector<std::uint8_t> pack(const SubmitAck& m) {
  core::ByteWriter w = begin(MsgType::kSubmitAck);
  w.write_bool(m.accepted);
  w.write_string(m.message);
  w.write_u8(static_cast<std::uint8_t>(m.reason));
  return w.take();
}

std::vector<std::uint8_t> pack(const ErrorMessage& m) {
  core::ByteWriter w = begin(MsgType::kError);
  w.write_string(m.message);
  w.write_u8(static_cast<std::uint8_t>(m.code));
  return w.take();
}

std::vector<std::uint8_t> pack(const UnmaskRequest& m) {
  core::ByteWriter w = begin(MsgType::kUnmaskRequest);
  w.write_i64(m.round);
  w.write_i64(m.wave);
  w.write_u32(static_cast<std::uint32_t>(m.dropped.size()));
  for (const std::string& site : m.dropped) w.write_string(site);
  m.skeleton.serialize(w);
  return w.take();
}

std::vector<std::uint8_t> pack(const UnmaskResponse& m) {
  core::ByteWriter w = begin(MsgType::kUnmaskResponse);
  w.write_string(m.session_id);
  w.write_i64(m.round);
  w.write_i64(m.wave);
  m.share.serialize(w);
  return w.take();
}

MsgType peek_type(std::span<const std::uint8_t> frame) {
  if (frame.empty()) throw ProtocolError("empty frame");
  const std::uint8_t tag = frame[0];
  if (tag < static_cast<std::uint8_t>(MsgType::kRegister) ||
      tag > static_cast<std::uint8_t>(MsgType::kUnmaskResponse)) {
    throw ProtocolError("unknown message tag " + std::to_string(tag));
  }
  return static_cast<MsgType>(tag);
}

RegisterRequest decode_register(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kRegister);
  RegisterRequest m;
  m.site_name = r.read_string();
  m.token = r.read_string();
  return m;
}

RegisterAck decode_register_ack(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kRegisterAck);
  RegisterAck m;
  m.accepted = r.read_bool();
  m.session_id = r.read_string();
  m.message = r.read_string();
  return m;
}

GetTaskRequest decode_get_task(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kGetTask);
  GetTaskRequest m;
  m.session_id = r.read_string();
  m.wait_ms = r.read_i64();
  return m;
}

TaskMessage decode_task(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kTask);
  TaskMessage m;
  const std::uint8_t kind = r.read_u8();
  if (kind > static_cast<std::uint8_t>(TaskKind::kStop)) {
    throw ProtocolError("bad task kind");
  }
  m.task = static_cast<TaskKind>(kind);
  m.round = r.read_i64();
  m.total_rounds = r.read_i64();
  m.payload = Dxo::deserialize(r);
  return m;
}

SubmitUpdateRequest decode_submit(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kSubmitUpdate);
  SubmitUpdateRequest m;
  m.session_id = r.read_string();
  m.round = r.read_i64();
  m.payload = Dxo::deserialize(r);
  return m;
}

SubmitAck decode_submit_ack(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kSubmitAck);
  SubmitAck m;
  m.accepted = r.read_bool();
  m.message = r.read_string();
  const std::uint8_t reason = r.read_u8();
  if (reason > static_cast<std::uint8_t>(RejectReason::kRecoveryInProgress)) {
    throw ProtocolError("bad reject reason");
  }
  m.reason = static_cast<RejectReason>(reason);
  return m;
}

ErrorMessage decode_error(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kError);
  ErrorMessage m;
  m.message = r.read_string();
  const std::uint8_t code = r.read_u8();
  if (code > static_cast<std::uint8_t>(ErrorCode::kWrongJob)) {
    throw ProtocolError("bad error code");
  }
  m.code = static_cast<ErrorCode>(code);
  return m;
}

UnmaskRequest decode_unmask_request(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kUnmaskRequest);
  UnmaskRequest m;
  m.round = r.read_i64();
  m.wave = r.read_i64();
  const std::uint32_t count = r.read_u32();
  m.dropped.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) m.dropped.push_back(r.read_string());
  m.skeleton = Dxo::deserialize(r);
  return m;
}

UnmaskResponse decode_unmask_response(std::span<const std::uint8_t> frame) {
  core::ByteReader r = expect(frame, MsgType::kUnmaskResponse);
  UnmaskResponse m;
  m.session_id = r.read_string();
  m.round = r.read_i64();
  m.wave = r.read_i64();
  m.share = Dxo::deserialize(r);
  return m;
}

}  // namespace cppflare::flare
