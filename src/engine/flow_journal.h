// FlowJournal: the durable write-ahead log of one flow's execution
// lifecycle, and the only resume input of a new process incarnation.
//
// The executor appends typed records at every durability boundary —
// attempt starts and ends, budget counters, recovery-point commits, the
// load baseline, quarantine-replay group lifecycle, and the final flow
// commit — to a checksummed JournalFile under the flow's scratch
// directory. After a SIGKILL, FlowJournal::Open replays the surviving
// records (the torn tail already truncated by the segment layer) into a
// FlowJournalState. Executor::Run reads that state itself when handed the
// journal: how many attempts the dead incarnations consumed (the retry
// budget spans process boundaries), the target-row baseline for the
// durable-prefix load skip (recomputing it from the target would silently
// re-count rows a dead incarnation already landed), and the recovery
// points referenced by rp_commit records, which it re-adopts into the
// run's fresh RecoveryPointStore via AdoptJournaledRecoveryPoints.
//
// Record schema (fields after seq + type; DESIGN.md "Crash recovery"):
//   load_base      rows                          target rows before 1st load
//   attempt_start  attempt mode resume_cut       mode = phased|streaming
//   rp_commit      point_id cut rows             after the marker sealed
//   budget         attempt skipped quarantined   successful attempt only
//   attempt_end    attempt status_code           "ok" or the failure code
//   flow_commit    —                             load + post_success done
//   replay_start   key op rows target_base       quarantine replay group
//   replay_end     key                           group fully applied
//   spill_dir      dir                           spill runs live under dir

#ifndef QOX_ENGINE_FLOW_JOURNAL_H_
#define QOX_ENGINE_FLOW_JOURNAL_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/journal_file.h"
#include "storage/recovery_store.h"

namespace qox {

/// State reconstructed by replaying the journal.
struct FlowJournalState {
  /// attempt_start records seen: attempts consumed by this and all prior
  /// incarnations (a started-but-unfinished attempt was consumed), which
  /// the retry budget counts.
  size_t attempts_started = 0;
  size_t attempts_finished = 0;
  std::string last_attempt_status;
  /// Flow fully committed (load + post_success + RP cleanup done).
  bool committed = false;
  /// Target row count before the flow's first load, journaled by the first
  /// incarnation: the durable-prefix baseline, so rows a dead incarnation
  /// already landed are skipped, not re-appended.
  bool has_load_base = false;
  size_t load_base_rows = 0;
  /// Budget counters of the last successful attempt.
  size_t budget_skipped = 0;
  size_t budget_quarantined = 0;
  struct RpCommit {
    std::string point_id;
    size_t cut = 0;
    size_t rows = 0;
  };
  /// In journal order; the latest commit of a point supersedes earlier
  /// ones (std::map keyed by point_id keeps exactly the latest).
  std::map<std::string, RpCommit> rp_commits;
  struct ReplayGroup {
    int64_t op_index = 0;
    size_t rows = 0;
    /// Target row count recorded immediately before the group's append.
    size_t target_base = 0;
    bool done = false;
  };
  /// Quarantine-replay dedup state, keyed by the group's content key.
  std::map<std::string, ReplayGroup> replay;
  /// Directories a budgeted incarnation spilled under (deduplicated, in
  /// first-seen order). A supervised restart sweeps them for orphaned
  /// `.spill` / `.spill.tmp` files left by a SIGKILL mid-spill.
  std::vector<std::string> spill_dirs;
};

class FlowJournal;
using FlowJournalPtr = std::shared_ptr<FlowJournal>;

class FlowJournal {
 public:
  /// Opens (creating if absent) `dir/<flow_id>.journal`, recovering state
  /// from the surviving records.
  static Result<FlowJournalPtr> Open(const std::string& dir,
                                     const std::string& flow_id,
                                     JournalSync sync);

  /// State as of open plus every record appended since.
  FlowJournalState state() const;

  Status RecordLoadBase(size_t rows);
  Status RecordAttemptStart(size_t attempt, bool streaming, int resume_cut);
  Status RecordRpCommit(const std::string& point_id, size_t cut, size_t rows);
  Status RecordBudget(size_t attempt, size_t skipped, size_t quarantined);
  Status RecordAttemptEnd(size_t attempt, const std::string& status_code);
  Status RecordFlowCommit();
  Status RecordReplayStart(const std::string& key, int64_t op_index,
                           size_t rows, size_t target_base);
  Status RecordReplayEnd(const std::string& key);
  Status RecordSpillDir(const std::string& dir);

  /// Compacts the segment after a flow commit: drops the per-attempt and
  /// rp_commit noise (the RPs are gone once the flow committed) and keeps
  /// only the records later opens still need — load_base, flow_commit, and
  /// the replay dedup groups. Atomic-rename rotation underneath.
  Status Compact();

  const std::string& path() const { return journal_->path(); }
  JournalSync sync_policy() const { return journal_->sync_policy(); }
  size_t syncs() const { return journal_->syncs(); }
  size_t truncated_bytes() const { return journal_->truncated_bytes(); }

 private:
  explicit FlowJournal(std::unique_ptr<JournalFile> journal)
      : journal_(std::move(journal)) {}

  /// Applies one record to `state`; unknown types are ignored (forward
  /// compatibility). Static so tests can fold prefixes independently.
  static void Apply(const JournalRecord& record, FlowJournalState* state);

  Status AppendAndApply(const std::string& type,
                        const std::vector<std::string>& fields, bool commit);

  const std::unique_ptr<JournalFile> journal_;
  mutable std::mutex mu_;
  FlowJournalState state_;
};

/// Re-registers every journaled recovery point into `store` (which starts
/// logically empty in a fresh process). Points whose on-disk marker did
/// not survive are skipped — resume falls back past them. Returns the
/// number adopted.
Result<size_t> AdoptJournaledRecoveryPoints(const FlowJournalState& state,
                                            const std::string& flow_id,
                                            RecoveryPointStore* store);

}  // namespace qox

#endif  // QOX_ENGINE_FLOW_JOURNAL_H_
