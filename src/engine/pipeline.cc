#include "engine/pipeline.h"

#include "common/clock.h"

namespace qox {

Result<std::unique_ptr<Pipeline>> Pipeline::Create(
    const Schema& input_schema, std::vector<OperatorPtr> ops,
    OperatorContext* ctx, const PipelineConfig& config) {
  std::vector<Schema> schemas;
  schemas.reserve(ops.size() + 1);
  schemas.push_back(input_schema);
  for (const OperatorPtr& op : ops) {
    QOX_ASSIGN_OR_RETURN(Schema out, op->Bind(schemas.back()));
    schemas.push_back(std::move(out));
  }
  auto pipeline = std::unique_ptr<Pipeline>(
      new Pipeline(std::move(ops), std::move(schemas), ctx, config));
  for (const OperatorPtr& op : pipeline->ops_) {
    QOX_RETURN_IF_ERROR(op->Open(ctx));
  }
  // Columnar capability is queried after Open: it may depend on execution
  // state (a lookup that spilled its build side is row-only).
  pipeline->columnar_ok_.reserve(pipeline->ops_.size());
  for (const OperatorPtr& op : pipeline->ops_) {
    pipeline->columnar_ok_.push_back(!op->IsBlocking() &&
                                     op->CanPushColumnar());
  }
  return pipeline;
}

Pipeline::Pipeline(std::vector<OperatorPtr> ops, std::vector<Schema> schemas,
                   OperatorContext* ctx, const PipelineConfig& config)
    : ops_(std::move(ops)),
      schemas_(std::move(schemas)),
      ctx_(ctx),
      config_(config) {
  op_stats_.resize(ops_.size());
  rows_entered_.resize(ops_.size(), 0);
  for (size_t i = 0; i < ops_.size(); ++i) {
    op_stats_[i].name = ops_[i]->name();
    op_stats_[i].kind = ops_[i]->kind();
  }
  schema_ptrs_.reserve(schemas_.size());
  for (const Schema& s : schemas_) schema_ptrs_.push_back(MakeSchemaPtr(s));
}

Status Pipeline::CheckInterrupts(size_t op_ordinal,
                                 size_t rows_about_to_enter) {
  if (ctx_ != nullptr && ctx_->IsCancelled()) {
    return Status::Cancelled("pipeline cancelled");
  }
  if (config_.deadline_micros > 0 && NowMicros() > config_.deadline_micros) {
    return Status::DeadlineExceeded(
        "attempt deadline expired at transform op " +
        std::to_string(config_.op_index_offset +
                       static_cast<int>(op_ordinal)));
  }
  if (config_.injector != nullptr) {
    QOX_RETURN_IF_ERROR(config_.injector->Check(
        config_.instance_id, config_.attempt,
        config_.op_index_offset + static_cast<int>(op_ordinal),
        rows_about_to_enter, config_.expected_input_rows));
  }
  return Status::OK();
}

ErrorPolicy Pipeline::PolicyFor(size_t op_ordinal) const {
  if (config_.error_policies == nullptr) return ErrorPolicy::kFailFast;
  const size_t global =
      static_cast<size_t>(config_.op_index_offset) + op_ordinal;
  if (global >= config_.error_policies->size()) return ErrorPolicy::kFailFast;
  return (*config_.error_policies)[global];
}

Status Pipeline::Contain(size_t op_ordinal, const Row& row,
                         const Status& cause) {
  const ErrorPolicy policy = PolicyFor(op_ordinal);
  ++op_stats_[op_ordinal].rows_contained;
  if (policy == ErrorPolicy::kQuarantine && config_.quarantine_sink) {
    ContainedRow contained;
    contained.op_index =
        config_.op_index_offset + static_cast<int>(op_ordinal);
    contained.op_name = ops_[op_ordinal]->name();
    contained.row = row;
    contained.cause = cause;
    QOX_RETURN_IF_ERROR(config_.quarantine_sink(contained));
  }
  if (config_.error_budget != nullptr) {
    return config_.error_budget->Charge(
        policy, config_.op_index_offset + static_cast<int>(op_ordinal));
  }
  return Status::OK();
}

Status Pipeline::ApplyOp(size_t op_ordinal, const RowBatch& input,
                         bool input_owned, RowBatch* out) {
  // Ownership is only exploited under kFailFast: the containable-replay
  // path below must re-read the input row by row.
  const bool move_input =
      input_owned && PolicyFor(op_ordinal) == ErrorPolicy::kFailFast;
  const size_t rows_in = input.num_rows();
  const StopWatch timer;
  Status st =
      move_input
          ? ops_[op_ordinal]->Push(std::move(const_cast<RowBatch&>(input)),
                                   out)
          : ops_[op_ordinal]->Push(input, out);
  if (!st.ok() && IsRowContainable(st) &&
      PolicyFor(op_ordinal) != ErrorPolicy::kFailFast) {
    // A containable batch failure is replayed row by row so only the
    // failing rows are contained. Safe because the failed Push's output
    // batch is discarded here (nothing reached downstream) and operators
    // that report row-scoped errors are stateless per the Push contract
    // (blocking operators never row-error).
    *out = RowBatch(schema_ptrs_[op_ordinal + 1]);
    st = Status::OK();
    RowBatch one(schema_ptrs_[op_ordinal]);
    for (const Row& row : input.rows()) {
      one.Clear();
      one.Append(row);
      RowBatch row_out(schema_ptrs_[op_ordinal + 1]);
      const Status row_st = ops_[op_ordinal]->Push(one, &row_out);
      if (row_st.ok()) {
        for (Row& emitted : row_out.rows()) out->Append(std::move(emitted));
      } else if (IsRowContainable(row_st)) {
        QOX_RETURN_IF_ERROR(Contain(op_ordinal, row, row_st));
      } else {
        st = row_st;
        break;
      }
    }
  }
  op_stats_[op_ordinal].micros += timer.ElapsedMicros();
  op_stats_[op_ordinal].rows_in += rows_in;
  QOX_RETURN_IF_ERROR(st);
  op_stats_[op_ordinal].rows_out += out->num_rows();
  return Status::OK();
}

Status Pipeline::RunColumnar(size_t begin, size_t end, ColumnBatch* batch) {
  if (ctx_ != nullptr) {
    if (ctx_->columnar_batches != nullptr) {
      ctx_->columnar_batches->fetch_add(1, std::memory_order_relaxed);
    }
    if (ctx_->columnar_rows != nullptr) {
      ctx_->columnar_rows->fetch_add(batch->num_rows(),
                                     std::memory_order_relaxed);
    }
  }
  for (size_t i = begin; i < end; ++i) {
    if (batch->num_rows() == 0) return Status::OK();
    rows_entered_[i] += batch->num_rows();
    QOX_RETURN_IF_ERROR(CheckInterrupts(i, rows_entered_[i]));
    const size_t rows_in = batch->num_rows();
    ColumnarPushContext cctx;
    cctx.contain = PolicyFor(i) != ErrorPolicy::kFailFast;
    const StopWatch timer;
    const Status st = ops_[i]->PushColumnar(batch, &cctx);
    op_stats_[i].micros += timer.ElapsedMicros();
    op_stats_[i].rows_in += rows_in;
    QOX_RETURN_IF_ERROR(st);
    for (auto& contained : cctx.contained) {
      QOX_RETURN_IF_ERROR(Contain(i, contained.first, contained.second));
    }
    if (batch->num_columns() != schema_ptrs_[i + 1]->num_fields()) {
      return Status::Internal(
          "columnar push of '" + ops_[i]->name() + "' produced " +
          std::to_string(batch->num_columns()) + " columns, schema expects " +
          std::to_string(schema_ptrs_[i + 1]->num_fields()));
    }
    batch->set_schema(schema_ptrs_[i + 1]);
    op_stats_[i].rows_out += batch->num_rows();
  }
  return Status::OK();
}

Status Pipeline::PushFrom(size_t from, const RowBatch& batch,
                          bool batch_owned) {
  if (from >= ops_.size()) {
    output_.insert(output_.end(), batch.rows().begin(), batch.rows().end());
    return Status::OK();
  }
  // `current` points at the caller's batch until the first operator emits;
  // afterwards it owns the intermediate batch (avoids a deep copy of the
  // input on every push). `current_owned` tracks whether the chain may
  // consume *current via the move-aware Push overload.
  const RowBatch* current = &batch;
  bool current_owned = batch_owned;
  RowBatch owned;
  for (size_t i = from; i < ops_.size(); ++i) {
    // Poison screening: rows the injector marks poisonous at this op are
    // contained (or, under kFailFast, abort the attempt) before entering.
    if (config_.injector != nullptr && config_.injector->HasPoison()) {
      const int global_op = config_.op_index_offset + static_cast<int>(i);
      bool any_poisoned = false;
      for (const Row& row : current->rows()) {
        if (!config_.injector->CheckRow(global_op, row).ok()) {
          any_poisoned = true;
          break;
        }
      }
      if (any_poisoned) {
        RowBatch kept(schema_ptrs_[i]);
        kept.Reserve(current->num_rows());
        for (const Row& row : current->rows()) {
          const Status row_st = config_.injector->CheckRow(global_op, row);
          if (row_st.ok()) {
            kept.Append(row);
            continue;
          }
          if (PolicyFor(i) == ErrorPolicy::kFailFast) return row_st;
          QOX_RETURN_IF_ERROR(Contain(i, row, row_st));
        }
        if (kept.empty()) return Status::OK();  // whole batch contained
        owned = std::move(kept);
        current = &owned;
        current_owned = true;
      }
    }
    // Columnar fast path: execute the maximal capable run starting here on
    // a column batch. Skipped while poison is armed (per-op row screening
    // above must keep seeing row batches) and when the batch is not
    // type-pure (FromRowBatch declines; the row path is always correct).
    if (columnar_ok_[i] &&
        (config_.injector == nullptr || !config_.injector->HasPoison())) {
      size_t end = i + 1;
      while (end < ops_.size() && columnar_ok_[end]) ++end;
      std::optional<ColumnBatch> cb =
          ColumnBatch::FromRowBatch(*current, schema_ptrs_[i]);
      if (cb.has_value()) {
        QOX_RETURN_IF_ERROR(RunColumnar(i, end, &*cb));
        if (cb->num_rows() == 0) return Status::OK();  // fully filtered
        if (end >= ops_.size()) {
          RowBatch rows = cb->ToRowBatch();
          output_.insert(output_.end(),
                         std::make_move_iterator(rows.rows().begin()),
                         std::make_move_iterator(rows.rows().end()));
          return Status::OK();
        }
        owned = cb->ToRowBatch();
        current = &owned;
        current_owned = true;
        i = end - 1;  // loop increment moves to the first row-mode op
        continue;
      }
    }
    rows_entered_[i] += current->num_rows();
    QOX_RETURN_IF_ERROR(CheckInterrupts(i, rows_entered_[i]));
    RowBatch out(schema_ptrs_[i + 1]);
    QOX_RETURN_IF_ERROR(ApplyOp(i, *current, current_owned, &out));
    if (out.empty()) return Status::OK();  // blocked or fully filtered
    owned = std::move(out);
    current = &owned;
    current_owned = true;
  }
  output_.insert(output_.end(), current->rows().begin(),
                 current->rows().end());
  return Status::OK();
}

Status Pipeline::Push(const RowBatch& batch) {
  return PushFrom(0, batch, /*batch_owned=*/false);
}

Status Pipeline::Push(RowBatch&& batch) {
  RowBatch owned = std::move(batch);
  return PushFrom(0, owned, /*batch_owned=*/true);
}

Status Pipeline::Finish() {
  for (size_t i = 0; i < ops_.size(); ++i) {
    QOX_RETURN_IF_ERROR(CheckInterrupts(i, rows_entered_[i]));
    RowBatch out(schema_ptrs_[i + 1]);
    const StopWatch timer;
    const Status st = ops_[i]->Finish(&out);
    op_stats_[i].micros += timer.ElapsedMicros();
    QOX_RETURN_IF_ERROR(st);
    op_stats_[i].rows_out += out.num_rows();
    if (!out.empty()) {
      QOX_RETURN_IF_ERROR(PushFrom(i + 1, out, /*batch_owned=*/true));
    }
  }
  return Status::OK();
}

std::vector<Row> Pipeline::TakeOutput() {
  std::vector<Row> out = std::move(output_);
  output_.clear();
  return out;
}

}  // namespace qox
