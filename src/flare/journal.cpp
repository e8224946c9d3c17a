#include "flare/journal.h"

#include <utility>

#include "core/bytes.h"
#include "core/crashpoint.h"
#include "core/error.h"

namespace cppflare::flare {

const char* journal_event_name(JournalEventType type) {
  switch (type) {
    case JournalEventType::kJobHeader: return "job_header";
    case JournalEventType::kRoundOpen: return "round_open";
    case JournalEventType::kAccepted: return "accepted";
    case JournalEventType::kRejected: return "rejected";
    case JournalEventType::kQuarantineScored: return "quarantine_scored";
    case JournalEventType::kEviction: return "eviction";
    case JournalEventType::kRecoveryBegin: return "recovery_begin";
    case JournalEventType::kUnmaskShare: return "unmask_share";
    case JournalEventType::kRecoveryWave: return "recovery_wave";
    case JournalEventType::kCommit: return "commit";
  }
  return "unknown";
}

namespace {

void write_names(core::ByteWriter& w, const std::vector<std::string>& names) {
  w.write_u32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) w.write_string(name);
}

std::vector<std::string> read_names(core::ByteReader& r) {
  const std::uint32_t count = r.read_u32();
  std::vector<std::string> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) names.push_back(r.read_string());
  return names;
}

}  // namespace

std::vector<std::uint8_t> JournalEvent::encode() const {
  core::ByteWriter w;
  w.write_u8(static_cast<std::uint8_t>(type));
  switch (type) {
    case JournalEventType::kJobHeader:
      w.write_string(job_id);
      break;
    case JournalEventType::kRoundOpen:
      w.write_i64(round);
      write_names(w, names);
      break;
    case JournalEventType::kAccepted:
    case JournalEventType::kUnmaskShare:
      w.write_string(site);
      payload->serialize(w);
      break;
    case JournalEventType::kRejected:
      w.write_string(site);
      w.write_u8(reason);
      w.write_string(detail);
      break;
    case JournalEventType::kQuarantineScored:
      w.write_string(site);
      w.write_u8(reason);
      w.write_string(detail);
      w.write_f64(norm);
      break;
    case JournalEventType::kEviction:
      w.write_string(site);
      break;
    case JournalEventType::kRecoveryBegin:
      w.write_i64(round);
      write_names(w, names);
      w.write_bool(deadline_fired);
      break;
    case JournalEventType::kRecoveryWave:
      w.write_i64(wave);
      write_names(w, names);
      break;
    case JournalEventType::kCommit:
      w.write_i64(round);
      break;
  }
  return w.take();
}

JournalEvent JournalEvent::decode(const std::vector<std::uint8_t>& bytes) {
  core::ByteReader r(bytes);
  JournalEvent ev;
  ev.type = static_cast<JournalEventType>(r.read_u8());
  switch (ev.type) {
    case JournalEventType::kJobHeader:
      ev.job_id = r.read_string();
      break;
    case JournalEventType::kRoundOpen:
      ev.round = r.read_i64();
      ev.names = read_names(r);
      break;
    case JournalEventType::kAccepted:
    case JournalEventType::kUnmaskShare:
      ev.site = r.read_string();
      ev.payload = Dxo::deserialize(r);
      break;
    case JournalEventType::kRejected:
      ev.site = r.read_string();
      ev.reason = r.read_u8();
      ev.detail = r.read_string();
      break;
    case JournalEventType::kQuarantineScored:
      ev.site = r.read_string();
      ev.reason = r.read_u8();
      ev.detail = r.read_string();
      ev.norm = r.read_f64();
      break;
    case JournalEventType::kEviction:
      ev.site = r.read_string();
      break;
    case JournalEventType::kRecoveryBegin:
      ev.round = r.read_i64();
      ev.names = read_names(r);
      ev.deadline_fired = r.read_bool();
      break;
    case JournalEventType::kRecoveryWave:
      ev.wave = r.read_i64();
      ev.names = read_names(r);
      break;
    case JournalEventType::kCommit:
      ev.round = r.read_i64();
      break;
    default:
      throw SerializationError("unknown journal event type " +
                               std::to_string(static_cast<int>(ev.type)));
  }
  return ev;
}

RoundJournal::RoundJournal(std::string path, core::WalSyncPolicy policy)
    : wal_(std::move(path), policy) {}

JournalReplay RoundJournal::open(const std::string& job_id) {
  job_id_ = job_id;
  const core::WalReplayResult raw = wal_.open_and_replay();
  JournalReplay replay;
  replay.torn_bytes = raw.truncated_bytes;
  if (raw.records.empty()) {
    JournalEvent header;
    header.type = JournalEventType::kJobHeader;
    header.job_id = job_id;
    wal_.append(header.encode());
    wal_.sync();
    header_end_ = wal_.size();
    return replay;
  }
  // Frame overhead is the u32 len + u32 crc pair (core/wal.h).
  header_end_ = 8 + raw.records.front().size();
  const JournalEvent header = JournalEvent::decode(raw.records.front());
  if (header.type != JournalEventType::kJobHeader) {
    throw core::WalCorruptionError("journal '" + wal_.path() +
                                   "' does not start with a job header");
  }
  if (header.job_id != job_id) {
    throw ConfigError("journal '" + wal_.path() + "' belongs to job '" +
                      header.job_id + "', not '" + job_id + "'");
  }
  for (std::size_t i = 1; i < raw.records.size(); ++i) {
    JournalEvent ev = JournalEvent::decode(raw.records[i]);
    switch (ev.type) {
      case JournalEventType::kRoundOpen:
        replay.open_round = ev.round;
        replay.events.clear();
        replay.events.push_back(std::move(ev));
        break;
      case JournalEventType::kCommit:
        replay.committed_round = ev.round;
        replay.open_round = -1;
        replay.events.clear();
        break;
      default:
        replay.events.push_back(std::move(ev));
        break;
    }
  }
  if (replay.open_round < 0) replay.events.clear();
  return replay;
}

void RoundJournal::append(const JournalEvent& event) {
  // No sync here, not even for kRoundOpen: the previous round was made
  // durable by its own commit barrier and the compaction fsync, and
  // kEveryRound promises power-loss durability only for *committed* rounds.
  // kEveryRecord syncs inside the WAL append itself.
  wal_.append(event.encode());
}

void RoundJournal::commit(std::int64_t round) {
  JournalEvent ev;
  ev.type = JournalEventType::kCommit;
  ev.round = round;
  append(ev);
  // No sync of the commit frame: by contract the round's CPK3 checkpoint is
  // already durable when commit() is called, so the checkpoint — not this
  // frame — is the round's source of truth. A crash that eats the un-synced
  // kCommit leaves an open round the restart reconciles against the newer
  // checkpoint and discards (the stale-journal branch), landing in the same
  // state a surviving kCommit would. The frame still matters for the
  // process-death window below: page cache survives SIGKILL, so a kill
  // between here and compaction replays into the clean committed branch.
  CF_CRASHPOINT("journal.commit.after");
  discard();
}

void RoundJournal::discard() {
  CF_CRASHPOINT("journal.compact.before");
  // In-place compaction: drop every frame after the job header. Cheap (no
  // temp-file rewrite — the fd, inode and header bytes stay put) and
  // crash-atomic on the frame boundary: a kill here leaves either the
  // committed/stale frames (replay skips past a trailing kCommit, or the
  // stale branch discards again) or the bare header.
  wal_.truncate(header_end_);
}

void RoundJournal::sync() { wal_.sync(); }

std::vector<JournalEvent> RoundJournal::read(const std::string& path) {
  const core::WalReplayResult raw = core::Wal::read(path);
  std::vector<JournalEvent> events;
  events.reserve(raw.records.size());
  for (const auto& record : raw.records) {
    events.push_back(JournalEvent::decode(record));
  }
  return events;
}

}  // namespace cppflare::flare
