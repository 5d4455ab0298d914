// The kill -9 chaos harness: seeded SIGKILL schedules against supervised,
// journaled flows. Each seed draws a data problem (poison + containment
// policies, shared with an unsupervised clean reference) and a sequence of
// crash points — journal appends, recovery-point renames, warehouse
// appends mid-batch, quarantine appends — armed one per child incarnation
// via FlowSupervisor::child_setup. The invariant: however the kills land,
// the supervised run converges and the durable warehouse file is
// BYTE-IDENTICAL to the clean run's, with the canonical quarantine ledger
// matching exactly and replayed quarantine groups applied exactly once.
//
// The sweep width defaults to 16 seeds per mode; QOX_CRASH_SEEDS tunes it
// (scripts/check.sh --fast sets 4).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/crash_point.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "engine/quarantine.h"
#include "engine/supervisor.h"
#include "storage/dead_letter_store.h"
#include "storage/flat_file.h"
#include "storage/mem_table.h"
#include "storage/recovery_store.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::MakeSource;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

constexpr size_t kRows = 160;
constexpr int kNumOps = 3;
constexpr char kFlowId[] = "crash_flow";

size_t SweepWidth() {
  const char* env = std::getenv("QOX_CRASH_SEEDS");
  if (env == nullptr) return 16;
  const unsigned long parsed = std::strtoul(env, nullptr, 10);
  return parsed == 0 ? 16 : static_cast<size_t>(parsed);
}

FlowSpec MakeFlow(DataStorePtr source, DataStorePtr target) {
  FlowSpec spec;
  spec.id = kFlowId;
  spec.source = std::move(source);
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  // Trailing sort: a deterministic global order is what makes "durable
  // prefix" a well-defined notion and the file comparison byte-exact.
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("sort",
                                    std::vector<SortKey>{{"id", false}});
  });
  spec.target = target;
  return spec;
}

Schema TargetSchema() {
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  return fn.Bind(SimpleSchema()).value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Everything one seed determines.
struct CrashSchedule {
  std::vector<PoisonSpec> poison;       // the data problem (shared w/ clean)
  std::vector<ErrorPolicy> policies;
  std::vector<std::string> kill_specs;  // one armed spec per incarnation
  /// Finite = the sort must spill (its working set exceeds the budget),
  /// putting the spill.write / spill.finalize crash points in play.
  size_t memory_budget_bytes = 0;
};

CrashSchedule DrawSchedule(Rng* rng) {
  CrashSchedule schedule;
  const size_t num_poisoned = static_cast<size_t>(rng->Uniform(0, 5));
  for (size_t i = 0; i < num_poisoned; ++i) {
    PoisonSpec spec;
    spec.at_op = static_cast<int>(rng->Uniform(0, kNumOps - 1));
    spec.id_value = rng->Uniform(0, static_cast<int64_t>(kRows) - 1);
    schedule.poison.push_back(spec);
  }
  for (int i = 0; i < kNumOps; ++i) {
    schedule.policies.push_back(rng->Bernoulli(0.5)
                                    ? ErrorPolicy::kQuarantine
                                    : ErrorPolicy::kSkip);
  }
  // 1..3 kills, each a crash point at a durability boundary with a sampled
  // hit count. A spec whose point/count is never reached simply lets that
  // incarnation converge early — the chaos is best-effort, the invariant
  // is not.
  static const char* kCatalog[] = {
      "child.start",   "journal.append", "journal.appended",
      "journal.rotate", "flat.append",   "flat.mid_append",
      "flat.appended", "rp.publish",     "rp.published",
      "rp.sealed",     "dlq.quarantine",
  };
  const size_t kills = static_cast<size_t>(rng->Uniform(1, 3));
  for (size_t i = 0; i < kills; ++i) {
    const size_t point = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(std::size(kCatalog)) - 1));
    const int64_t hit = rng->Uniform(1, 6);
    schedule.kill_specs.push_back(std::string(kCatalog[point]) + ":" +
                                  std::to_string(hit));
  }
  return schedule;
}

ExecutionConfig BaseConfig(const CrashSchedule& schedule,
                           const std::string& dir) {
  ExecutionConfig config;
  config.batch_size = 32;
  config.error_policies = schedule.policies;
  config.recovery_points = {2};
  // The attempt budget spans incarnations; give the sweep ample room.
  config.retry.max_attempts = 64;
  config.retry.initial_backoff_micros = 50;
  if (schedule.memory_budget_bytes > 0) {
    config.memory_budget_bytes = schedule.memory_budget_bytes;
    // Inside the scratch dir so the leak check knows where to look.
    config.spill_dir = dir + "/spill";
  }
  return config;
}

struct Outcome {
  std::string warehouse_bytes;
  std::vector<std::string> ledger;
};

/// The clean reference: the same data problem, no journal, no supervisor,
/// no kills — run in-process against its own durable files.
Outcome RunClean(const std::string& dir, const CrashSchedule& schedule) {
  std::filesystem::create_directories(dir);
  FailureInjector injector;
  for (const PoisonSpec& spec : schedule.poison) injector.AddPoison(spec);
  auto target =
      FlatFile::Open("wh", TargetSchema(), dir + "/wh.csv").value();
  auto dlq = DeadLetterStore::Wrap(
                 FlatFile::Open("dlq", DeadLetterStoreSchema(),
                                dir + "/dlq.csv")
                     .value())
                 .value();
  ExecutionConfig config = BaseConfig(schedule, dir);
  config.rp_store = RecoveryPointStore::Open(dir + "/rp").value();
  config.injector = &injector;
  config.dead_letter = dlq;
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target),
      config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  Outcome outcome;
  outcome.warehouse_bytes = ReadFileBytes(dir + "/wh.csv");
  outcome.ledger = CanonicalLedger(dlq->ReadAll().value());
  return outcome;
}

/// The supervised run: every incarnation rebuilds its stores from the
/// scratch directory, adopts journaled recovery points, and runs with the
/// seed's kill schedule armed one spec per incarnation.
Outcome RunSupervised(const std::string& dir, const CrashSchedule& schedule,
                      bool streaming, SupervisorReport* report_out) {
  std::filesystem::create_directories(dir);
  SupervisorOptions options;
  options.scratch_dir = dir;
  options.max_incarnations = schedule.kill_specs.size() + 2;
  options.journal_sync = JournalSync::kAlways;
  options.child_setup = [&schedule](int incarnation) {
    const size_t index = static_cast<size_t>(incarnation - 1);
    ArmCrashPoints(index < schedule.kill_specs.size()
                       ? schedule.kill_specs[index]
                       : "");
  };
  const auto body = [&dir, &schedule, streaming](const FlowEnv& env) {
    FailureInjector injector;
    for (const PoisonSpec& spec : schedule.poison) injector.AddPoison(spec);
    QOX_ASSIGN_OR_RETURN(
        auto target, FlatFile::Open("wh", TargetSchema(), dir + "/wh.csv"));
    QOX_ASSIGN_OR_RETURN(auto dlq_file,
                         FlatFile::Open("dlq", DeadLetterStoreSchema(),
                                        dir + "/dlq.csv"));
    QOX_ASSIGN_OR_RETURN(auto dlq, DeadLetterStore::Wrap(dlq_file));
    QOX_ASSIGN_OR_RETURN(auto rp_store,
                         RecoveryPointStore::Open(dir + "/rp"));
    ExecutionConfig config = BaseConfig(schedule, dir);
    config.streaming = streaming;
    config.rp_store = rp_store;
    config.injector = &injector;
    config.dead_letter = dlq;
    config.journal = env.journal;
    return Executor::Run(
               MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)),
                        target),
               config)
        .status();
  };
  const Result<SupervisorReport> report =
      FlowSupervisor::Run(kFlowId, body, options);
  EXPECT_TRUE(report.ok()) << report.status();
  Outcome outcome;
  if (report.ok()) {
    *report_out = report.value();
    EXPECT_TRUE(report.value().success)
        << report.value().final_status.ToString();
  }
  outcome.warehouse_bytes = ReadFileBytes(dir + "/wh.csv");
  auto dlq = DeadLetterStore::Wrap(
                 FlatFile::Open("dlq", DeadLetterStoreSchema(),
                                dir + "/dlq.csv")
                     .value())
                 .value();
  outcome.ledger = CanonicalLedger(dlq->ReadAll().value());
  return outcome;
}

class CrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = testing_util::MakeTempDir("crash_sweep");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::string root_;
};

TEST_F(CrashSweepTest, WarehouseConvergesByteIdenticalUnderSigkill) {
  const size_t width = SweepWidth();
  size_t total_crashes = 0;
  for (size_t seed = 0; seed < width; ++seed) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE("crash seed " + std::to_string(seed) +
                   (streaming ? " streaming" : " phased"));
      Rng rng(seed * 1000003 + 29);
      const CrashSchedule schedule = DrawSchedule(&rng);
      const std::string tag =
          std::to_string(seed) + (streaming ? "s" : "p");
      const Outcome clean = RunClean(root_ + "/clean" + tag, schedule);
      SupervisorReport report;
      const Outcome crashed = RunSupervised(root_ + "/crash" + tag,
                                            schedule, streaming, &report);
      // Byte-identical warehouse file: kills, restarts, durable-prefix
      // skips and RP adoption leave no trace in the final contents.
      EXPECT_EQ(crashed.warehouse_bytes, clean.warehouse_bytes);
      // The canonical ledger matches the clean data problem's exactly:
      // re-quarantines from dead incarnations collapse, nothing is lost.
      EXPECT_EQ(crashed.ledger, clean.ledger);
      EXPECT_TRUE(report.journal_state.committed);
      total_crashes += report.crashes;
    }
  }
  // The sweep is only evidence if the kills actually land: across all
  // seeds a meaningful share of armed crash points must have fired (a
  // renamed crash point or broken arming would otherwise pass silently).
  // The floor is width-proportional but tolerant of small sweeps: a spec
  // legitimately misses when its point/count is never reached, and at
  // QOX_CRASH_SEEDS=4 the draw can land mostly on such specs.
  EXPECT_GE(total_crashes, std::max<size_t>(2, width / 2));
}

/// Counts `.spill` / `.spill.tmp` files anywhere under `dir`.
size_t SpillArtifactsUnder(const std::string& dir) {
  size_t count = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; ++it) {
    if (it->path().filename().string().find(".spill") != std::string::npos) {
      ++count;
    }
  }
  return count;
}

TEST_F(CrashSweepTest, SpillFilesNeverLeakUnderSigkillMidSpill) {
  // The budgeted variant of the sweep: the sort's working set is forced
  // through spill files while kills land on the spill write/finalize
  // boundaries themselves (plus the usual durability points as controls).
  // Invariants: convergence is still byte-identical, and the scratch
  // directory holds NO spill artifact afterwards — an orphan from a dead
  // incarnation is swept via the journaled spill-dir pointer, a survivor
  // from the final attempt is removed on attempt exit.
  const size_t width = std::max<size_t>(4, SweepWidth() / 2);
  size_t total_crashes = 0;
  for (size_t seed = 0; seed < width; ++seed) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE("spill crash seed " + std::to_string(seed) +
                   (streaming ? " streaming" : " phased"));
      Rng rng(seed * 60013 + 11);
      CrashSchedule schedule = DrawSchedule(&rng);
      schedule.memory_budget_bytes = 2 << 10;  // sort must spill
      schedule.kill_specs.clear();
      static const char* kSpillCatalog[] = {"spill.write", "spill.finalize",
                                            "journal.append", "flat.append"};
      const size_t kills = static_cast<size_t>(rng.Uniform(1, 2));
      for (size_t i = 0; i < kills; ++i) {
        const size_t point = static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(std::size(kSpillCatalog)) - 1));
        schedule.kill_specs.push_back(std::string(kSpillCatalog[point]) +
                                      ":" + std::to_string(rng.Uniform(1, 4)));
      }
      const std::string tag = std::to_string(seed) + (streaming ? "s" : "p");
      const Outcome clean = RunClean(root_ + "/sclean" + tag, schedule);
      SupervisorReport report;
      const Outcome crashed = RunSupervised(root_ + "/scrash" + tag,
                                            schedule, streaming, &report);
      EXPECT_EQ(crashed.warehouse_bytes, clean.warehouse_bytes);
      EXPECT_EQ(crashed.ledger, clean.ledger);
      EXPECT_TRUE(report.journal_state.committed);
      EXPECT_EQ(SpillArtifactsUnder(root_ + "/sclean" + tag), 0u);
      EXPECT_EQ(SpillArtifactsUnder(root_ + "/scrash" + tag), 0u);
      total_crashes += report.crashes;
    }
  }
  EXPECT_GE(total_crashes, std::max<size_t>(2, width / 2));
}

// ---------------------------------------------------------------------------
// Quarantine replay under SIGKILL: exactly once, across process restarts.
// ---------------------------------------------------------------------------

/// Fills `dir` with a finished flow run whose ledger holds quarantined
/// rows: poison on the first two ops, quarantine policy everywhere.
CrashSchedule SeedQuarantinedRun(const std::string& dir) {
  CrashSchedule schedule;
  for (const int64_t id : {3, 10, 17, 44, 91}) {
    PoisonSpec spec;
    spec.at_op = id % 2 == 0 ? 1 : 0;
    spec.id_value = id;
    schedule.poison.push_back(spec);
  }
  schedule.policies.assign(kNumOps, ErrorPolicy::kQuarantine);
  const Outcome outcome = RunClean(dir, schedule);
  EXPECT_FALSE(outcome.ledger.empty());
  return schedule;
}

Status ReplayBody(const std::string& dir, const FlowEnv& env) {
  QOX_ASSIGN_OR_RETURN(auto target,
                       FlatFile::Open("wh", TargetSchema(), dir + "/wh.csv"));
  QOX_ASSIGN_OR_RETURN(
      auto dlq_file,
      FlatFile::Open("dlq", DeadLetterStoreSchema(), dir + "/dlq.csv"));
  QOX_ASSIGN_OR_RETURN(auto dlq, DeadLetterStore::Wrap(dlq_file));
  const FlowSpec flow =
      MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target);
  return ReplayQuarantine(flow, ExecutionConfig(), *dlq, env.journal.get())
      .status();
}

TEST_F(CrashSweepTest, QuarantineReplayAppliesExactlyOnceAcrossRestarts) {
  const size_t width = std::max<size_t>(4, SweepWidth() / 4);
  for (size_t seed = 0; seed < width; ++seed) {
    SCOPED_TRACE("replay seed " + std::to_string(seed));
    const std::string clean_dir = root_ + "/rclean" + std::to_string(seed);
    const std::string crash_dir = root_ + "/rcrash" + std::to_string(seed);
    SeedQuarantinedRun(clean_dir);
    SeedQuarantinedRun(crash_dir);

    // Reference: one clean in-process replay.
    {
      auto target =
          FlatFile::Open("wh", TargetSchema(), clean_dir + "/wh.csv")
              .value();
      auto dlq = DeadLetterStore::Wrap(
                     FlatFile::Open("dlq", DeadLetterStoreSchema(),
                                    clean_dir + "/dlq.csv")
                         .value())
                     .value();
      const FlowSpec flow =
          MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target);
      const Result<ReplayStats> stats =
          ReplayQuarantine(flow, ExecutionConfig(), *dlq, nullptr);
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_GT(stats.value().rows_loaded, 0u);
    }

    // Crash variant: supervised replay with kills at replay-specific
    // durability boundaries, including between a group's warehouse append
    // and its replay_end record — the double-apply window.
    Rng rng(seed * 7919 + 5);
    static const char* kReplayCatalog[] = {
        "replay.loaded", "journal.append", "flat.append", "flat.appended"};
    std::vector<std::string> kills;
    const size_t num_kills = static_cast<size_t>(rng.Uniform(1, 2));
    for (size_t i = 0; i < num_kills; ++i) {
      kills.push_back(
          std::string(kReplayCatalog[rng.Uniform(
              0, static_cast<int64_t>(std::size(kReplayCatalog)) - 1)]) +
          ":" + std::to_string(rng.Uniform(1, 2)));
    }
    SupervisorOptions options;
    options.scratch_dir = crash_dir;
    options.max_incarnations = kills.size() + 2;
    options.child_setup = [&kills](int incarnation) {
      const size_t index = static_cast<size_t>(incarnation - 1);
      ArmCrashPoints(index < kills.size() ? kills[index] : "");
    };
    const auto report =
        FlowSupervisor::Run(
            "replay",
            [&crash_dir](const FlowEnv& env) {
              const Status st = ReplayBody(crash_dir, env);
              if (!st.ok()) return st;
              return env.journal->RecordFlowCommit();
            },
            options)
            .value();
    EXPECT_TRUE(report.success) << report.final_status.ToString();

    // Exactly once: the warehouse files are byte-identical — every
    // quarantined group applied once, torn groups finished without
    // re-appending their durable prefix.
    EXPECT_EQ(ReadFileBytes(crash_dir + "/wh.csv"),
              ReadFileBytes(clean_dir + "/wh.csv"));

    // And the journaled dedup keys make one MORE replay (a fresh process
    // incarnation, in-process here) a no-op: all groups already applied.
    auto journal =
        FlowJournal::Open(crash_dir, "replay", JournalSync::kAlways).value();
    auto target =
        FlatFile::Open("wh", TargetSchema(), crash_dir + "/wh.csv").value();
    auto dlq = DeadLetterStore::Wrap(
                   FlatFile::Open("dlq", DeadLetterStoreSchema(),
                                  crash_dir + "/dlq.csv")
                       .value())
                   .value();
    const FlowSpec flow =
        MakeFlow(MakeSource(SimpleSchema(), SimpleRows(kRows)), target);
    const Result<ReplayStats> again =
        ReplayQuarantine(flow, ExecutionConfig(), *dlq, journal.get());
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again.value().rows_loaded, 0u);
    EXPECT_GT(again.value().groups_already_applied, 0u);
  }
}

}  // namespace
}  // namespace qox
