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
