#include "core/quality_features.h"

#include "storage/mem_table.h"

namespace qox {

Result<LogicalFlow> AddProvenanceColumns(const LogicalFlow& flow,
                                         const std::string& load_tag,
                                         bool keep_target) {
  if (flow.source() == nullptr) {
    return Status::Invalid("flow has no source");
  }
  std::vector<LogicalOp> ops = flow.ops();
  ops.push_back(MakeFunction(
      "Func_provenance",
      {ColumnTransform::Constant("_source",
                                 Value::String(flow.source()->name())),
       ColumnTransform::Constant("_load_tag", Value::String(load_tag))}));
  QOX_ASSIGN_OR_RETURN(const std::vector<Schema> schemas,
                       BindLogicalChain(flow.source()->schema(), ops));
  DataStorePtr target = flow.target();
  if (keep_target) {
    if (target == nullptr || target->schema() != schemas.back()) {
      return Status::Invalid(
          "keep_target requires a target with the provenance-widened "
          "schema");
    }
  } else {
    target = std::make_shared<MemTable>(
        (flow.target() != nullptr ? flow.target()->name() : "target") +
            std::string("_traced"),
        schemas.back());
  }
  LogicalFlow traced(flow.id() + "_traced", flow.source(), std::move(ops),
                     target);
  traced.set_post_success(flow.post_success());
  return traced;
}

Result<MaterializedDesign> MaterializeQualityFeatures(
    const PhysicalDesign& design, const std::string& load_tag) {
  MaterializedDesign out;
  out.design = design;
  if (design.provenance_columns) {
    QOX_ASSIGN_OR_RETURN(out.design.flow,
                         AddProvenanceColumns(design.flow, load_tag));
    // The widened chain is one op longer; a parallel range covering the
    // whole chain keeps covering it (range_end saturates), and recovery
    // cuts remain valid positions.
  }
  if (design.audit_rejects) {
    out.dead_letter = DeadLetterStore::InMemory("reject_audit");
  }
  return out;
}

ExecutionConfig MaterializedExecutionConfig(
    const MaterializedDesign& materialized, RecoveryPointStorePtr rp_store,
    FailureInjector* injector) {
  ExecutionConfig config =
      materialized.design.ToExecutionConfig(std::move(rp_store), injector);
  config.dead_letter = materialized.dead_letter;
  return config;
}

}  // namespace qox
