#include "fts/plan/translator.h"

#include "fts/common/string_util.h"
#include "fts/simd/agg_spec.h"

namespace fts {
namespace {

PredicateSpec ToPredicateSpec(const AstPredicate& predicate) {
  return PredicateSpec{predicate.column, predicate.op, predicate.literal};
}

// Lowers the aggregate projection (COUNT(*) included) to fold terms:
// deduplicated by (op, column), AVG lowered to SUM (every term tracks its
// own match count, so AVG finalizes as sum/count), COUNT(*) a column-less
// COUNT term. `agg_bindings[i]` is the term answering aggregate_items[i].
Status LowerAggregates(PhysicalPlan* plan) {
  for (const AggregateItem& item : plan->aggregate_items) {
    AggregateSpec term;
    switch (item.kind) {
      case AggregateKind::kCountStar:
        term.op = AggOp::kCount;
        break;
      case AggregateKind::kSum:
      case AggregateKind::kAvg:
        term.op = AggOp::kSum;
        break;
      case AggregateKind::kMin:
        term.op = AggOp::kMin;
        break;
      case AggregateKind::kMax:
        term.op = AggOp::kMax;
        break;
    }
    if (item.kind != AggregateKind::kCountStar) {
      FTS_RETURN_IF_ERROR(plan->table->ColumnIndex(item.column).status());
      term.column = item.column;
    }
    size_t index = 0;
    while (index < plan->agg_terms.size() &&
           !(plan->agg_terms[index].op == term.op &&
             plan->agg_terms[index].column == term.column)) {
      ++index;
    }
    if (index == plan->agg_terms.size()) plan->agg_terms.push_back(term);
    plan->agg_bindings.push_back(static_cast<int>(index));
  }
  return Status::Ok();
}

// Routes the fold terms onto the scan: the plan's single scan step (or a
// synthesized predicate-less step when the query has no WHERE) gains
// spec.aggregates, and the executor folds them inside the scan, per chunk
// in a kernel loop or through the positions sink, without materializing
// the query's position lists. Multi-step (non-fused) scan chains refine
// position lists and plans with more than kMaxAggTerms terms exceed the
// kernels' accumulator array; both stay unpushed and fold their refined
// position lists through the same sink.
void PlanAggregatePushdown(PhysicalPlan* plan,
                           const TranslatorOptions& options) {
  if (plan->empty_result || plan->scan_steps.size() > 1 ||
      plan->agg_terms.size() > kMaxAggTerms) {
    return;
  }
  PhysicalPlan::ScanStep step;
  if (!plan->scan_steps.empty()) {
    step = plan->scan_steps[0];
  } else {
    step.spec.context = options.context;
    step.spec.adaptive = options.adaptive;
    step.engine = options.engine;
    step.jit_register_bits = options.jit_register_bits;
  }
  step.spec.aggregates = plan->agg_terms;
  plan->pushdown_step = std::move(step);
}

}  // namespace

StatusOr<PhysicalPlan> TranslateLqp(const LqpNodePtr& root,
                                    const TranslatorOptions& options) {
  if (root == nullptr) return Status::InvalidArgument("null LQP");

  PhysicalPlan plan;
  plan.output = PhysicalPlan::Output::kCountStar;
  plan.fallback = options.fallback;
  plan.threads = options.threads;
  plan.context = options.context;

  bool saw_output = false;
  std::optional<std::string> order_by_name;
  // Collect nodes root-first; scan steps must execute bottom-up, so build
  // the step list in reverse at the end.
  std::vector<PhysicalPlan::ScanStep> steps_root_first;

  for (LqpNode* node = root.get(); node != nullptr;
       node = node->child().get()) {
    switch (node->kind()) {
      case LqpNodeKind::kAggregate: {
        const auto* aggregate = static_cast<const AggregateNode*>(node);
        plan.aggregate_items = aggregate->items();
        const bool pure_count =
            plan.aggregate_items.size() == 1 &&
            plan.aggregate_items[0].kind == AggregateKind::kCountStar;
        plan.output = pure_count ? PhysicalPlan::Output::kCountStar
                                 : PhysicalPlan::Output::kAggregate;
        saw_output = true;
        break;
      }
      case LqpNodeKind::kProjection: {
        const auto* projection = static_cast<const ProjectionNode*>(node);
        plan.output = PhysicalPlan::Output::kProject;
        saw_output = true;
        plan.projection_names = projection->columns();
        // select_all resolved after the table is known.
        if (projection->select_all()) plan.projection_names.clear();
        plan.order_descending = projection->order_descending();
        plan.limit = projection->limit();
        // order_by resolved to an index after the table is known; stash
        // the name in projection_names? No — resolve below via the node.
        if (projection->order_by().has_value()) {
          order_by_name = projection->order_by();
        }
        break;
      }
      case LqpNodeKind::kPredicate: {
        const auto* predicate = static_cast<const PredicateNode*>(node);
        PhysicalPlan::ScanStep step;
        step.spec.predicates = {ToPredicateSpec(predicate->predicate())};
        step.spec.context = options.context;
        step.spec.adaptive = options.adaptive;
        step.engine = options.engine;
        step.jit_register_bits = options.jit_register_bits;
        steps_root_first.push_back(std::move(step));
        break;
      }
      case LqpNodeKind::kFusedScan: {
        const auto* fused = static_cast<const FusedScanNode*>(node);
        PhysicalPlan::ScanStep step;
        step.spec.predicates.reserve(fused->predicates().size());
        for (const AstPredicate& predicate : fused->predicates()) {
          step.spec.predicates.push_back(ToPredicateSpec(predicate));
        }
        step.spec.context = options.context;
        step.spec.adaptive = options.adaptive;
        step.engine = options.engine;
        step.jit_register_bits = options.jit_register_bits;
        steps_root_first.push_back(std::move(step));
        break;
      }
      case LqpNodeKind::kEmptyResult: {
        plan.empty_result = true;
        break;
      }
      case LqpNodeKind::kStoredTable: {
        const auto* stored = static_cast<const StoredTableNode*>(node);
        plan.table = stored->table();
        plan.table_name = stored->name();
        break;
      }
    }
  }

  if (plan.table == nullptr) {
    return Status::InvalidArgument("LQP has no stored table");
  }
  if (!saw_output) {
    return Status::InvalidArgument("LQP has no projection or aggregate");
  }

  // Resolve projection columns.
  if (plan.output == PhysicalPlan::Output::kProject) {
    if (plan.projection_names.empty()) {  // SELECT *
      for (size_t c = 0; c < plan.table->column_count(); ++c) {
        plan.projection_names.push_back(
            plan.table->column_definition(c).name);
      }
    }
    plan.projection_indexes.reserve(plan.projection_names.size());
    for (const std::string& name : plan.projection_names) {
      FTS_ASSIGN_OR_RETURN(const size_t index,
                           plan.table->ColumnIndex(name));
      plan.projection_indexes.push_back(index);
    }
    if (order_by_name.has_value()) {
      // ORDER BY refers to a projected column (the common case); sort by
      // its position within the output row.
      FTS_ASSIGN_OR_RETURN(const size_t table_index,
                           plan.table->ColumnIndex(*order_by_name));
      for (size_t p = 0; p < plan.projection_indexes.size(); ++p) {
        if (plan.projection_indexes[p] == table_index) {
          plan.order_by_index = p;
        }
      }
      if (!plan.order_by_index.has_value()) {
        return Status::InvalidArgument(StrFormat(
            "ORDER BY column '%s' must appear in the projection",
            order_by_name->c_str()));
      }
    }
  }

  plan.scan_steps.assign(steps_root_first.rbegin(),
                         steps_root_first.rend());
  if (plan.output != PhysicalPlan::Output::kProject) {
    FTS_RETURN_IF_ERROR(LowerAggregates(&plan));
    if (options.enable_aggregate_pushdown) {
      PlanAggregatePushdown(&plan, options);
    }
  }
  return plan;
}

}  // namespace fts
