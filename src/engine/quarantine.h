// ReplayQuarantine: re-runs dead-lettered rows through a repaired flow.
//
// The point of quarantining (rather than skipping) a failing row is that
// the engagement can repair the flow — fix the lookup table, widen the
// domain check — and then recover exactly the rows the original run could
// not process, without re-extracting or re-transforming anything that
// already loaded. Each dead-letter record carries the failing row *as it
// entered the failing operator*, so replay only runs the suffix of the
// transform chain from that operator onward and appends the result to the
// flow target. After a successful replay the target holds the union of the
// original (quarantining) load and the recovered rows — exactly the
// clean-run output when the repair is complete.
//
// Records are deduplicated on (op_index, payload) before replay: retried
// attempts and redundant instances legitimately re-quarantine the same
// rows, and loading a recovered row twice would corrupt the warehouse.

#ifndef QOX_ENGINE_QUARANTINE_H_
#define QOX_ENGINE_QUARANTINE_H_

#include <cstddef>

#include "engine/executor.h"
#include "storage/dead_letter_store.h"

namespace qox {

struct ReplayStats {
  /// Ledger records read (before deduplication).
  size_t records_read = 0;
  /// Duplicate records collapsed by the (op_index, payload) dedup.
  size_t deduplicated = 0;
  /// Distinct quarantined rows pushed through the repaired suffix.
  size_t replayed = 0;
  /// Output rows appended to the flow target (quality operators in the
  /// suffix may legitimately emit fewer rows than went in).
  size_t rows_loaded = 0;
  /// Rows the suffix rejected into the OperatorContext reject path.
  size_t rows_rejected = 0;
  /// Journaled mode only: groups skipped because a previous process
  /// incarnation already applied them (the durable dedup), and rows of a
  /// torn group found already durable in the target and not re-appended.
  size_t groups_already_applied = 0;
  size_t rows_already_durable = 0;
};

/// Replays every quarantined or shed record of `dead_letter` through
/// `flow`'s transform suffix (empty for a row shed at the load boundary)
/// and appends the recovered rows to `flow.target`. Audited quality
/// rejects are skipped: the flow rejected them correctly. The flow is
/// expected to be repaired: any row error during replay fails fast (nothing
/// is re-quarantined — a replay that still fails means the repair is not
/// done, and the ledger still holds the rows). Replay is deterministic:
/// groups run in ascending op_index and rows within a group in canonical
/// (sorted payload) order. `config` is used for validation and batch
/// sizing only; retries, redundancy and injectors do not apply.
///
/// `journal` (optional) makes replay idempotent ACROSS PROCESS RESTARTS:
/// each group's dedup key and pre-append target baseline are journaled
/// around its load, so a rerun after a mid-replay kill skips fully
/// applied groups and appends only the missing suffix of a torn one
/// (replay determinism is what makes the durable prefix identifiable).
/// Without a journal the dedup state is in-memory only — idempotent within
/// one call, but a restart mid-replay could double-apply a suffix.
Result<ReplayStats> ReplayQuarantine(const FlowSpec& flow,
                                     const ExecutionConfig& config,
                                     const DeadLetterStore& dead_letter,
                                     FlowJournal* journal = nullptr);

}  // namespace qox

#endif  // QOX_ENGINE_QUARANTINE_H_
