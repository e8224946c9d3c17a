// Write-ahead round journal for the federated coordinator (DESIGN.md §15).
//
// The CPK3 checkpoint persists completed rounds; everything inside a round
// — accepted contributions (their sealed DXO bytes), typed rejections,
// quarantine scores, evictions, the secure-agg recovery state machine —
// lives only in server memory. Each of those mutations IS a JournalEvent:
// the server builds the event, append()s it as a typed WAL frame *before*
// the in-memory state changes (all under the server's round lock), and then
// applies it with the one function replay also runs. A restarted
// coordinator therefore replays the journal into exactly the state the live
// round had: already-accepted sites are not re-trained, reputation strikes
// survive, and a frozen masked round picks recovery back up at the exact
// wave it froze in.
//
// Lifecycle of the log: a job header frame, then per round a kRoundOpen,
// the round's events, and a kCommit barrier appended after the CPK3
// checkpoint for that round is durably saved — at which point the journal
// is compacted back to the header alone (the checkpoint now owns the
// round's outcome). A crash between checkpoint save and compaction is
// detected at replay time by comparing the journal's open round against
// the checkpoint's resume round, and the stale journal is discarded.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/wal.h"
#include "flare/dxo.h"

namespace cppflare::flare {

enum class JournalEventType : std::uint8_t {
  kJobHeader = 1,
  kRoundOpen = 2,         // round + sampled cohort
  kAccepted = 3,          // site + post-filter DXO bytes
  kRejected = 4,          // site + reject reason + ack message
  kQuarantineScored = 5,  // site + verdict reason/detail + update norm
  kEviction = 6,          // site
  kRecoveryBegin = 7,     // round + dropped sites + deadline_fired
  kUnmaskShare = 8,       // site + share DXO bytes
  kRecoveryWave = 9,      // wave index + demoted laggards
  kCommit = 10,           // round
};

const char* journal_event_name(JournalEventType type);

/// One journal frame, decoded — and the unit of round mutation: the server
/// builds one per mutation with a designated initializer naming only the
/// fields relevant to `type`; the rest keep their (explicit) defaults.
struct JournalEvent {
  JournalEventType type = JournalEventType::kJobHeader;
  std::string job_id{};             // kJobHeader
  std::int64_t round = 0;           // kRoundOpen / kRecoveryBegin / kCommit
  std::string site{};               // per-site events
  std::vector<std::string> names{}; // cohort / dropped / demoted
  std::optional<Dxo> payload{};     // kAccepted / kUnmaskShare
  std::uint8_t reason = 0;          // kRejected / kQuarantineScored
  std::string detail{};             // ack message / verdict detail
  double norm = 0.0;                // kQuarantineScored
  bool deadline_fired = false;      // kRecoveryBegin
  std::int64_t wave = 0;            // kRecoveryWave

  std::vector<std::uint8_t> encode() const;
  static JournalEvent decode(const std::vector<std::uint8_t>& bytes);
};

/// What replay found: the open (uncommitted) round and its events in append
/// order, or open_round == -1 when the journal holds no mid-round state.
struct [[nodiscard]] JournalReplay {
  std::int64_t open_round = -1;
  std::int64_t committed_round = -1;  // last kCommit seen, -1 if none
  std::uint64_t torn_bytes = 0;       // torn tail dropped by the WAL layer
  std::vector<JournalEvent> events;   // open round's events, incl. kRoundOpen
};

/// Typed facade over a core::Wal. Single-writer; the FederatedServer calls
/// every method under its round mutex. Appends are WAL-first: the server
/// journals a mutation before applying it, so a crash at any point leaves
/// either a journaled-and-replayable record or no trace — never half-applied
/// in-memory state that the journal missed.
class RoundJournal {
 public:
  RoundJournal(std::string path, core::WalSyncPolicy policy);

  /// Opens and replays the journal. A fresh/empty log gets a job header
  /// written. Throws cppflare::ConfigError if the log belongs to a
  /// different job, core::WalCorruptionError on bit-rot.
  JournalReplay open(const std::string& job_id);

  /// Appends one round event (any type but kJobHeader and kCommit). The
  /// server builds the event, appends it, and then applies that same event
  /// to its in-memory state — the function replay runs too — so the log
  /// and the live round cannot drift apart.
  void append(const JournalEvent& event);

  /// Round-commit barrier: appends kCommit, then compacts the log back to
  /// the job header (the compaction's truncate is the round's one fsync).
  /// Called after the round's CPK3 checkpoint is durably saved — the
  /// checkpoint owns the outcome from here on.
  void commit(std::int64_t round);

  /// Drops all round state (stale journal detected at replay), keeping the
  /// job header.
  void discard();

  /// Round-boundary fsync for WalSyncPolicy::kEveryRound.
  void sync();

  const std::string& path() const { return wal_.path(); }

  /// Decodes every event in a journal file read-only — for the death-test
  /// harness and post-mortem tooling. Tolerates a torn tail.
  static std::vector<JournalEvent> read(const std::string& path);

 private:
  core::Wal wal_;
  std::string job_id_;
  /// Byte offset just past the job-header frame — the in-place compaction
  /// point discard() truncates back to. Set by open().
  std::uint64_t header_end_ = 0;
};

}  // namespace cppflare::flare
