#include "engine/flow_journal.h"

#include <cstdlib>

namespace qox {

namespace {

size_t ParseSize(const std::string& s) {
  return static_cast<size_t>(std::strtoull(s.c_str(), nullptr, 10));
}

int64_t ParseInt(const std::string& s) {
  return static_cast<int64_t>(std::strtoll(s.c_str(), nullptr, 10));
}

}  // namespace

void FlowJournal::Apply(const JournalRecord& record, FlowJournalState* state) {
  const std::vector<std::string>& f = record.fields;
  if (record.type == "load_base" && f.size() >= 1) {
    state->has_load_base = true;
    state->load_base_rows = ParseSize(f[0]);
  } else if (record.type == "attempt_start" && f.size() >= 1) {
    ++state->attempts_started;
  } else if (record.type == "rp_commit" && f.size() >= 3) {
    FlowJournalState::RpCommit rp;
    rp.point_id = f[0];
    rp.cut = ParseSize(f[1]);
    rp.rows = ParseSize(f[2]);
    state->rp_commits[rp.point_id] = rp;
  } else if (record.type == "budget" && f.size() >= 3) {
    state->budget_skipped = ParseSize(f[1]);
    state->budget_quarantined = ParseSize(f[2]);
  } else if (record.type == "attempt_end" && f.size() >= 2) {
    ++state->attempts_finished;
    state->last_attempt_status = f[1];
  } else if (record.type == "flow_commit") {
    state->committed = true;
  } else if (record.type == "replay_start" && f.size() >= 4) {
    FlowJournalState::ReplayGroup group;
    group.op_index = ParseInt(f[1]);
    group.rows = ParseSize(f[2]);
    group.target_base = ParseSize(f[3]);
    group.done = false;
    state->replay[f[0]] = group;
  } else if (record.type == "replay_end" && f.size() >= 1) {
    state->replay[f[0]].done = true;
  } else if (record.type == "spill_dir" && f.size() >= 1) {
    bool known = false;
    for (const std::string& dir : state->spill_dirs) {
      if (dir == f[0]) {
        known = true;
        break;
      }
    }
    if (!known) state->spill_dirs.push_back(f[0]);
  }
  // Unknown record types: skipped (newer writers, older readers).
}

Result<FlowJournalPtr> FlowJournal::Open(const std::string& dir,
                                         const std::string& flow_id,
                                         JournalSync sync) {
  QOX_ASSIGN_OR_RETURN(
      std::unique_ptr<JournalFile> file,
      JournalFile::Open(dir + "/" + flow_id + ".journal", sync));
  auto journal = FlowJournalPtr(new FlowJournal(std::move(file)));
  for (const JournalRecord& record : journal->journal_->records()) {
    Apply(record, &journal->state_);
  }
  return journal;
}

FlowJournalState FlowJournal::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

Status FlowJournal::AppendAndApply(const std::string& type,
                                   const std::vector<std::string>& fields,
                                   bool commit) {
  std::lock_guard<std::mutex> lock(mu_);
  QOX_RETURN_IF_ERROR(journal_->Append(type, fields, commit));
  JournalRecord record;
  record.type = type;
  record.fields = fields;
  Apply(record, &state_);
  return Status::OK();
}

Status FlowJournal::RecordLoadBase(size_t rows) {
  return AppendAndApply("load_base", {std::to_string(rows)}, /*commit=*/true);
}

Status FlowJournal::RecordAttemptStart(size_t attempt, bool streaming,
                                       int resume_cut) {
  // Durable before any work: a crash mid-attempt must still show the
  // attempt as consumed, or the retry budget would reset on every death.
  return AppendAndApply("attempt_start",
                        {std::to_string(attempt),
                         streaming ? "streaming" : "phased",
                         std::to_string(resume_cut)},
                        /*commit=*/true);
}

Status FlowJournal::RecordRpCommit(const std::string& point_id, size_t cut,
                                   size_t rows) {
  return AppendAndApply(
      "rp_commit",
      {point_id, std::to_string(cut), std::to_string(rows)},
      /*commit=*/true);
}

Status FlowJournal::RecordBudget(size_t attempt, size_t skipped,
                                 size_t quarantined) {
  return AppendAndApply("budget",
                        {std::to_string(attempt), std::to_string(skipped),
                         std::to_string(quarantined)},
                        /*commit=*/false);
}

Status FlowJournal::RecordAttemptEnd(size_t attempt,
                                     const std::string& status_code) {
  return AppendAndApply("attempt_end",
                        {std::to_string(attempt), status_code},
                        /*commit=*/false);
}

Status FlowJournal::RecordFlowCommit() {
  return AppendAndApply("flow_commit", {}, /*commit=*/true);
}

Status FlowJournal::RecordReplayStart(const std::string& key, int64_t op_index,
                                      size_t rows, size_t target_base) {
  return AppendAndApply("replay_start",
                        {key, std::to_string(op_index), std::to_string(rows),
                         std::to_string(target_base)},
                        /*commit=*/true);
}

Status FlowJournal::RecordReplayEnd(const std::string& key) {
  return AppendAndApply("replay_end", {key}, /*commit=*/true);
}

Status FlowJournal::RecordSpillDir(const std::string& dir) {
  // Durable before the first spill write: a SIGKILL mid-spill must leave
  // behind the pointer the sweeping successor needs.
  return AppendAndApply("spill_dir", {dir}, /*commit=*/true);
}

Status FlowJournal::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JournalRecord> keep;
  auto add = [&keep](const std::string& type,
                     std::vector<std::string> fields) {
    JournalRecord record;
    record.type = type;
    record.fields = std::move(fields);
    keep.push_back(std::move(record));
  };
  if (state_.has_load_base) {
    add("load_base", {std::to_string(state_.load_base_rows)});
  }
  if (state_.committed) {
    add("flow_commit", {});
  } else {
    // Not committed: the attempt history and RP commits are still live
    // resume state and must survive the rotation.
    for (size_t i = 0; i < state_.attempts_started; ++i) {
      add("attempt_start", {std::to_string(i + 1), "phased", "-1"});
    }
    for (const auto& [point_id, rp] : state_.rp_commits) {
      add("rp_commit", {point_id, std::to_string(rp.cut),
                        std::to_string(rp.rows)});
    }
    // Spill dirs may still hold a dead incarnation's orphans until a
    // restart sweeps them; after a commit the attempt-end cleanup already
    // emptied them, so the pointer can be dropped.
    for (const std::string& dir : state_.spill_dirs) {
      add("spill_dir", {dir});
    }
  }
  for (const auto& [key, group] : state_.replay) {
    add("replay_start",
        {key, std::to_string(group.op_index), std::to_string(group.rows),
         std::to_string(group.target_base)});
    if (group.done) add("replay_end", {key});
  }
  return journal_->Rewrite(keep);
}

Result<size_t> AdoptJournaledRecoveryPoints(const FlowJournalState& state,
                                            const std::string& flow_id,
                                            RecoveryPointStore* store) {
  size_t adopted = 0;
  for (const auto& [point_id, rp] : state.rp_commits) {
    QOX_ASSIGN_OR_RETURN(const bool ok,
                         store->Adopt({flow_id, point_id}));
    if (ok) ++adopted;
  }
  return adopted;
}

}  // namespace qox
