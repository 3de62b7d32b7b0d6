#include "core/control_plane.h"

#include <utility>

#include "common/check.h"

namespace tailguard {

QueryControlPlane::QueryControlPlane(
    ControlPlaneOptions options,
    std::vector<std::shared_ptr<CdfModel>> server_models)
    : options_(std::move(options)),
      estimator_(std::move(server_models)),
      tracker_(options_.id_start, options_.id_stride),
      rng_(options_.seed),
      placement_policy_(make_placement_policy(options_.placement)) {
  TG_CHECK_MSG(!options_.classes.empty(), "control plane needs >= 1 class");
  for (const ClassSpec& spec : options_.classes) estimator_.add_class(spec);
  per_class_.resize(options_.classes.size());
  if (options_.admission) admission_.emplace(*options_.admission);
  if (options_.placement.kind == PlacementPolicyKind::kTailRisk)
    slack_ = std::make_unique<SlackTracker>(estimator_.num_servers(),
                                            options_.placement.slack_histogram);
}

bool QueryControlPlane::should_admit(TimeMs now) {
  if (!admission_) return true;
  // kOnOff ignores the coin; draw only when kProportional will consume it so
  // on/off admission leaves the control plane's Rng stream untouched.
  const double coin =
      admission_->options().mode == AdmissionMode::kProportional
          ? rng_.uniform()
          : 0.0;
  return admission_->should_admit(now, coin);
}

bool QueryControlPlane::should_admit(TimeMs now, double coin) {
  if (!admission_) return true;
  return admission_->should_admit(now, coin);
}

void QueryControlPlane::count_admitted() {
  ++queries_admitted_;
  if (admission_) admission_->count_admitted();
}

void QueryControlPlane::count_rejected() {
  ++queries_rejected_;
  if (admission_) admission_->count_rejected();
}

double QueryControlPlane::admission_miss_ratio(TimeMs now) {
  return admission_ ? admission_->miss_ratio(now) : 0.0;
}

void QueryControlPlane::place(std::vector<PlacementCandidate>& candidates,
                              std::size_t count, ClassId cls, TimeMs now,
                              std::vector<ServerId>& out) {
  ++placement_stats_.decisions;
  PlacementContext ctx;
  ctx.now_ms = now;
  if (slack_) {
    ctx.slack = slack_.get();
    // Budget hint for the risk score: Eq. 6 over the first min(count, n)
    // candidates. The estimator memoises per (class, model multiset), so
    // this is a cache hit on every homogeneous decision after the first.
    budget_hint_servers_.clear();
    const std::size_t hint_n = std::min(count, candidates.size());
    for (std::size_t i = 0; i < hint_n; ++i)
      budget_hint_servers_.push_back(candidates[i].second);
    ctx.budget_hint_ms = estimator_.budget(cls, budget_hint_servers_);
    double age_sum_ms = 0.0;
    std::size_t with_data = 0;
    for (const auto& [load, server] : candidates) {
      if (slack_->slack_observations(server) == 0) continue;
      age_sum_ms += now - slack_->last_update_ms(server);
      ++with_data;
    }
    if (with_data > 0) {
      placement_stats_.slack_staleness_ms_sum +=
          age_sum_ms / static_cast<double>(with_data);
      ++placement_stats_.decisions_with_slack;
    }
  }
  placement_stats_.candidates_considered +=
      placement_policy_->place(candidates, count, ctx, rng_, out);
}

TimeMs QueryControlPlane::budget(ClassId cls,
                                 std::span<const ServerId> servers) {
  return estimator_.budget(cls, servers);
}

QueryPlan QueryControlPlane::begin_query(TimeMs t0, ClassId cls,
                                         std::span<const ServerId> servers,
                                         std::optional<TimeMs> budget_override,
                                         std::optional<TimeMs> order_slo_ms) {
  QueryPlan plan;
  plan.cls = cls;
  plan.fanout = static_cast<std::uint32_t>(servers.size());
  plan.t0 = t0;
  plan.budget_ms =
      budget_override ? *budget_override : estimator_.budget(cls, servers);
  plan.tail_deadline = t0 + plan.budget_ms;
  switch (options_.policy) {
    case Policy::kTfEdf:
      plan.order_deadline = plan.tail_deadline;
      break;
    case Policy::kTEdf:
      plan.order_deadline =
          order_slo_ms ? t0 + *order_slo_ms : estimator_.slo_deadline(t0, cls);
      break;
    case Policy::kFifo:
    case Policy::kPriq:
      plan.order_deadline = t0;  // unused for ordering
      break;
  }
  plan.id = tracker_.begin_query(t0, cls, plan.fanout, plan.tail_deadline);
  if (slack_) {
    // One slack sample per placed task: at enqueue, t_D − now is exactly
    // the budget. This is the distribution the tail-risk policy reads.
    for (const ServerId server : servers)
      slack_->record_enqueue(server, plan.budget_ms, t0);
  }
  return plan;
}

void QueryControlPlane::absorb_remote_dequeues(TimeMs now,
                                               std::uint64_t recorded,
                                               std::uint64_t missed) {
  if (admission_) admission_->record_remote_dequeues(now, recorded, missed);
}

void QueryControlPlane::observe_post_queuing(ServerId server,
                                             TimeMs post_queuing_ms) {
  estimator_.observe_post_queuing(server, post_queuing_ms);
  if (slack_) slack_->record_service(server, post_queuing_ms);
}

const ClassSpec& QueryControlPlane::class_spec(ClassId cls) const {
  return estimator_.class_spec(cls);
}

const ClassAccounting& QueryControlPlane::class_accounting(ClassId cls) const {
  TG_CHECK_MSG(cls < per_class_.size(), "class id out of range");
  return per_class_[cls];
}

std::uint64_t QueryControlPlane::tasks_recorded() const {
  std::uint64_t n = 0;
  for (const ClassAccounting& a : per_class_) n += a.tasks_recorded;
  return n;
}

std::uint64_t QueryControlPlane::tasks_missed() const {
  std::uint64_t n = 0;
  for (const ClassAccounting& a : per_class_) n += a.tasks_missed;
  return n;
}

double QueryControlPlane::task_miss_ratio() const {
  const std::uint64_t total = tasks_recorded();
  return total == 0 ? 0.0
                    : static_cast<double>(tasks_missed()) /
                          static_cast<double>(total);
}

const CdfModel& QueryControlPlane::model_of(ServerId server) const {
  return estimator_.model_of(server);
}

}  // namespace tailguard
