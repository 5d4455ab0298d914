// RowOnly: a decorator that hides an operator's columnar kernel, so the
// pipeline runs it on the row path.
//
// The engine executes every columnar-capable op vectorized; the row kernels
// are the reference its output is compared against. Wrapping a flow's
// factories in RowOnly runs the whole flow on the row path, which is how
// tests and bench/perf_transform obtain that reference without an engine
// knob. Header-only and dependency-free beyond the engine, so the tests and
// the benches share this one definition.

#ifndef QOX_TESTS_ROW_ONLY_H_
#define QOX_TESTS_ROW_ONLY_H_

#include <memory>
#include <string>
#include <utility>

#include "engine/executor.h"
#include "engine/operator.h"

namespace qox {
namespace testing_util {

/// Forwards everything but the columnar capability to `inner`:
/// CanPushColumnar() stays false, so PushColumnar is never called.
class RowOnlyOp final : public Operator {
 public:
  explicit RowOnlyOp(OperatorPtr inner) : inner_(std::move(inner)) {}

  const char* kind() const override { return inner_->kind(); }
  const std::string& name() const override { return inner_->name(); }
  Result<Schema> Bind(const Schema& input) override {
    return inner_->Bind(input);
  }
  Status Open(OperatorContext* ctx) override { return inner_->Open(ctx); }
  Status Push(const RowBatch& input, RowBatch* output) override {
    return inner_->Push(input, output);
  }
  Status Push(RowBatch&& input, RowBatch* output) override {
    return inner_->Push(std::move(input), output);
  }
  Status Finish(RowBatch* output) override { return inner_->Finish(output); }
  bool IsBlocking() const override { return inner_->IsBlocking(); }
  double CostPerRow() const override { return inner_->CostPerRow(); }
  double Selectivity() const override { return inner_->Selectivity(); }

 private:
  OperatorPtr inner_;
};

/// Wraps a factory so every instance it builds runs row-only. An empty
/// factory, or a null instance, passes through for the executor to report.
inline OperatorFactory RowOnly(OperatorFactory factory) {
  if (!factory) return factory;
  return [factory = std::move(factory)]() -> OperatorPtr {
    OperatorPtr inner = factory();
    if (inner == nullptr) return inner;
    return std::make_unique<RowOnlyOp>(std::move(inner));
  };
}

/// The same flow with every transform wrapped in RowOnly.
inline FlowSpec RowOnly(FlowSpec flow) {
  for (OperatorFactory& factory : flow.transforms) {
    factory = RowOnly(std::move(factory));
  }
  return flow;
}

}  // namespace testing_util
}  // namespace qox

#endif  // QOX_TESTS_ROW_ONLY_H_
