// StageSet: task + channel coordination for the stage-graph scheduler.
//
// Every attempt of a flow runs as a dataflow of stages (extract, transform
// pipelines, partition router and branches, merges, recovery-point
// barriers, load or a redundant instance's collect) connected by Channel<RowBatch> edges. The
// StageSet owns the wiring: it creates the channels, runs the stage bodies
// through its ExecContext, and guarantees clean unwinding when any stage
// fails. It has one scheduler and two dispatch policies:
//
//   * PIPELINED (streaming mode): every stage is a BLOCKING task on the
//     shared executor substrate (engine/worker_pool.h — stage bodies park
//     on bounded channel edges, so they run on the pool's cached expansion
//     workers, never occupying core workers). Neighbours overlap and
//     backpressure each other.
//   * PHASED: edges are unbounded and Spawn runs the stage to completion
//     on the calling thread before it returns. Stages are spawned in
//     topological order, so a stage starts only after every input channel
//     is closed — extraction, each section's transform and the sink run
//     as exclusive phases. SpawnGroup runs stages with no dependency on
//     each other (a unit's partition branches) as CPU tasks of the
//     context's pool, so phased width stays bounded by the pool and no
//     blocking-lane task is started.
//
// The context's tag (flow deadline, predicted cost) rides on every task
// submission, which is how a whole dataflow competes EDF against other
// flows on one shared pool.
//
// Error protocol: a stage body returns a Status. The first non-OK outcome
// poisons EVERY channel in the set with an explicitly tagged *echo* of the
// cause (PoisonEcho), which wakes every stage blocked on a Push or Pop
// (and makes every later phased stage return at once); those stages
// return the echo in turn and are classified as "secondary" failures by
// the tag — never by comparing messages, so two stages failing
// independently with identical text are both recorded as primary. Join()
// then reports one winning status: injected failures beat everything (the
// retry machinery must see the true cause), then the first primary error,
// then any secondary echo.
//
// Accounting: each stage gets a StageStats slot. The stage body records
// rows/batches and its channel waits (Push/Pop expose their blocked time);
// the set derives busy time as wall − stall − backpressure when the body
// finishes (a phased stage never waits, so its busy time is its wall
// time). Join() appends all slots to the caller's stage list.

#ifndef QOX_ENGINE_STREAMING_H_
#define QOX_ENGINE_STREAMING_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "engine/channel.h"
#include "engine/exec_context.h"
#include "engine/run_metrics.h"

namespace qox {

using BatchChannel = Channel<RowBatch>;
using BatchChannelPtr = std::shared_ptr<BatchChannel>;

/// Any-ready demultiplexer over a set of per-partition channels.
///
/// A merge that pops its inputs in a fixed order head-of-line blocks:
/// under partition skew the starved partition's channel stays empty while
/// the hot partition's bounded channel fills, the hot producer stalls on
/// Push, the partitioner stalls behind it, and the starved partition never
/// receives data or end-of-stream — the dataflow deadlocks. The feed
/// breaks the cycle: Next(p) drains *every* ready channel into
/// per-partition local buffers while it waits for partition p, so
/// producers always make progress no matter which partition the consumer
/// wants next. Per-partition order is preserved and the consumer still
/// chooses the interleave, so deterministic merges stay deterministic.
///
/// The local buffers are unbounded: under total skew the feed can buffer a
/// hot partition's entire output while waiting for a starved partition's
/// end-of-stream — the same worst case as a phased (fully materialized)
/// merge. Channel capacity still bounds memory whenever the consumer keeps
/// up.
class PartitionFeed {
 public:
  /// Attaches a shared notifier to every channel; construct the feed
  /// before polling (producers may already be running — items pushed
  /// before attachment are simply found by the first poll).
  explicit PartitionFeed(std::vector<BatchChannelPtr> parts);

  /// Blocking: the next batch from partition `p`, or nullopt once `p` is
  /// exhausted (channel closed and both queue and local buffer drained).
  /// Fails with the poison status if any channel is poisoned. Time blocked
  /// waiting (on *any* channel activity) accumulates into `wait_micros`.
  Result<std::optional<RowBatch>> Next(size_t p, int64_t* wait_micros);

 private:
  /// Non-blocking: moves every ready batch into the local buffers and
  /// marks channels that reached end-of-stream.
  Status Sweep();

  std::vector<BatchChannelPtr> parts_;
  std::shared_ptr<ChannelNotifier> notifier_;
  std::vector<std::deque<RowBatch>> buf_;
  std::vector<bool> channel_open_;  ///< false once closed and drained
};

/// How a StageSet runs its stages (see the file comment).
enum class StageDispatch {
  kPipelined,  ///< concurrent blocking tasks over bounded channels
  kPhased,     ///< section-serial over unbounded channels
};

class StageSet {
 public:
  using Body = std::function<Status(StageStats*)>;

  /// One stage of a SpawnGroup.
  struct Stage {
    std::string name;
    Body body;
  };

  /// Pipelined stages run as blocking tasks of `ctx`'s WorkerPool under
  /// its tag; the context must then carry a pool, since stage bodies block
  /// on bounded channels and inline (pool-less) execution would deadlock
  /// the dataflow. Phased stages run on the caller (groups on the pool).
  explicit StageSet(const ExecContext& ctx,
                    StageDispatch dispatch = StageDispatch::kPipelined);
  /// Waits out any stages still running (after poisoning, so this cannot
  /// hang).
  ~StageSet();

  StageSet(const StageSet&) = delete;
  StageSet& operator=(const StageSet&) = delete;

  StageDispatch dispatch() const { return dispatch_; }

  /// Creates a channel registered for poison-on-failure: bounded to
  /// `capacity` batches when pipelined, unbounded when phased. If a stage
  /// has already failed, the channel is born poisoned, so stages wired
  /// after a failure unwind immediately instead of processing data nobody
  /// reads.
  BatchChannelPtr MakeChannel(size_t capacity);

  /// Runs `body` as one stage: pipelined, a blocking task on the
  /// substrate; phased, on this thread before returning. The body fills
  /// its StageStats (rows, batches, waits); wall and busy time — plus the
  /// time the task waited queued before a worker picked it up and the
  /// stage's slack against the context's deadline — are measured here. A
  /// non-OK return poisons every channel in the set.
  void Spawn(std::string name, Body body);

  /// Runs stages that do not depend on each other: pipelined, one Spawn
  /// each; phased, as CPU tasks of the pool (BulkExecute), returning once
  /// all of them finished.
  void SpawnGroup(std::vector<Stage> stages);

  /// Waits for every spawned stage and appends their stats to `*stats`
  /// (may be null). Returns the winning status per the error protocol.
  /// Must be called after all Spawn/MakeChannel calls.
  Status Join(std::vector<StageStats>* stats);

  /// The tagged status channels are poisoned with when `cause` fails a
  /// stage: a distinct code + message prefix, so a stage that merely
  /// returns what it popped from a poisoned channel is recognizable as a
  /// secondary (echo) failure. Idempotent — an echo is not re-wrapped.
  static Status PoisonEcho(const Status& cause);

  /// True iff `status` is a PoisonEcho-tagged echo.
  static bool IsPoisonEcho(const Status& status);

 private:
  /// Poisons every registered channel with `status` (first failure wins).
  void FailAll(const Status& status);
  /// Reserves the StageStats slot of a new stage.
  size_t AddSlot(std::string name);
  /// Runs one stage body into its slot (timing, outcome, poison on failure).
  void RunStage(size_t slot, int64_t posted_micros, const Body& body);

  struct Outcome {
    Status status = Status::OK();
    StageStats stats;
    bool primary = false;  ///< failed before (not because of) the poison
  };

  ExecContext ctx_;
  StageDispatch dispatch_;
  /// Completion guard over every spawned stage task (replaces the old
  /// per-stage std::thread joins).
  TaskGroup group_;
  std::mutex mu_;
  std::vector<BatchChannelPtr> channels_;
  std::vector<Outcome> outcomes_;
  Status first_failure_ = Status::OK();
  bool joined_ = false;
};

}  // namespace qox

#endif  // QOX_ENGINE_STREAMING_H_
