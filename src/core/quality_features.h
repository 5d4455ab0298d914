// Optional quality features: the traceability/auditability levers of the
// QoX suite, materialized.
//
// Sec. 3.5: "one may choose to increase the workflow complexity and the
// data volumes by enriching the data flow with extra information useful
// for provenance purposes. In doing so, at least the performance,
// freshness, complexity ... are hurt, but the traceability gains ground."
//
// MaterializeQualityFeatures() turns a PhysicalDesign's declared feature
// flags into engine artifacts: provenance columns appended to the flow,
// and a dead-letter ledger wired into the execution config, to which the
// executor appends every quality reject as an audit record
// (ExecutionConfig::audit_rejects). The cost model already charges for
// both (cost_model.cc), so predictions and the materialized execution
// agree.

#ifndef QOX_CORE_QUALITY_FEATURES_H_
#define QOX_CORE_QUALITY_FEATURES_H_

#include <string>

#include "core/design.h"
#include "storage/dead_letter_store.h"

namespace qox {

/// Returns a copy of `flow` whose rows carry provenance columns:
/// `_source` (the source store's name) and `_load_tag` (the given tag,
/// e.g. a load timestamp or batch id). The target is replaced with a
/// fresh MemTable matching the widened schema unless `keep_target` is
/// set (then the existing target must already have the widened schema).
Result<LogicalFlow> AddProvenanceColumns(const LogicalFlow& flow,
                                         const std::string& load_tag,
                                         bool keep_target = false);

/// Everything MaterializeQualityFeatures produced for one design.
struct MaterializedDesign {
  PhysicalDesign design;           ///< possibly provenance-widened flow
  /// In-memory audit ledger; non-null iff audit_rejects.
  DeadLetterStorePtr dead_letter;
};

/// Applies the design's `provenance_columns` and `audit_rejects` flags:
/// widens the flow and/or creates the audit ledger. Run the result under
/// MaterializedExecutionConfig, which wires the ledger in.
Result<MaterializedDesign> MaterializeQualityFeatures(
    const PhysicalDesign& design, const std::string& load_tag);

/// Convenience: execution config for a materialized design, with the
/// audit ledger wired in as its dead-letter ledger.
ExecutionConfig MaterializedExecutionConfig(
    const MaterializedDesign& materialized, RecoveryPointStorePtr rp_store,
    FailureInjector* injector);

}  // namespace qox

#endif  // QOX_CORE_QUALITY_FEATURES_H_
