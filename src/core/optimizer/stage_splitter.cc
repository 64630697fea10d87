#include "core/optimizer/stage_splitter.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "core/operators/physical_ops.h"

namespace rheem {

bool Stage::Contains(const Operator* op) const {
  return std::find(ops_.begin(), ops_.end(), op) != ops_.end();
}

Result<ExecutionPlan> StageSplitter::Split(const Plan& plan,
                                           PlatformAssignment assignment) {
  RHEEM_RETURN_IF_ERROR(plan.Validate());
  RHEEM_ASSIGN_OR_RETURN(std::vector<Operator*> topo, plan.TopologicalOrder());

  for (Operator* op : topo) {
    if (assignment.by_op.count(op->id()) == 0 ||
        assignment.by_op.at(op->id()) == nullptr) {
      return Status::InvalidPlan("operator " + op->name() +
                                 " has no platform assignment");
    }
  }

  // 1. Group operators greedily in topological order: an operator joins the
  // group (task atom) of a same-platform input when that does not create a
  // cycle in the stage-dependency graph; otherwise it opens a new group.
  // A cycle would arise exactly when some *other* input group of the
  // operator transitively depends on the candidate group (e.g. platform A ->
  // B -> A diamonds), so we check reachability on demand — stage graphs are
  // tiny, a BFS per candidate is cheap.
  std::map<int, int> group_of;            // op id -> stage index
  std::vector<Platform*> group_platform;
  std::vector<std::set<int>> group_deps;  // stage -> upstream stages

  auto depends_on = [&group_deps](int from, int target) {
    // True if `target` is reachable from `from` via upstream edges.
    std::vector<int> work{from};
    std::set<int> visited;
    while (!work.empty()) {
      const int g = work.back();
      work.pop_back();
      if (g == target) return true;
      if (!visited.insert(g).second) continue;
      for (int dep : group_deps[static_cast<std::size_t>(g)]) {
        work.push_back(dep);
      }
    }
    return false;
  };

  // Folds group `victim` into group `target`: relabels members, unions the
  // dependency sets, and re-points every reference to the victim.
  auto merge_groups = [&](int victim, int target) {
    for (auto& [op_id, g] : group_of) {
      if (g == victim) g = target;
    }
    auto& tdeps = group_deps[static_cast<std::size_t>(target)];
    for (int dep : group_deps[static_cast<std::size_t>(victim)]) {
      if (dep != target) tdeps.insert(dep);
    }
    group_deps[static_cast<std::size_t>(victim)].clear();
    tdeps.erase(victim);
    for (auto& deps : group_deps) {
      if (deps.count(victim) > 0) {
        deps.erase(victim);
        deps.insert(target);
      }
    }
    // Self-dependency may appear when target already depended on victim.
    group_deps[static_cast<std::size_t>(target)].erase(target);
  };

  for (Operator* op : topo) {
    Platform* p = assignment.by_op.at(op->id());
    int target = -1;
    for (Operator* in : op->inputs()) {
      if (assignment.by_op.at(in->id()) != p) continue;
      const int candidate = group_of.at(in->id());
      bool safe = true;
      for (Operator* other : op->inputs()) {
        const int og = group_of.at(other->id());
        if (og == candidate) continue;
        if (depends_on(og, candidate)) {
          safe = false;
          break;
        }
      }
      if (safe) {
        target = candidate;
        break;
      }
    }
    if (target == -1) {
      target = static_cast<int>(group_platform.size());
      group_platform.push_back(p);
      group_deps.emplace_back();
    }
    group_of[op->id()] = target;
    for (Operator* in : op->inputs()) {
      const int g = group_of.at(in->id());
      if (g != target) group_deps[static_cast<std::size_t>(target)].insert(g);
    }
    // Absorb the remaining same-platform input groups where that cannot
    // close a cycle: merging `og` into `target` is unsafe exactly when some
    // *other* group on a path og -> ... -> target would end up both up- and
    // downstream of the merged group.
    for (Operator* in : op->inputs()) {
      const int og = group_of.at(in->id());
      if (og == target || assignment.by_op.at(in->id()) != p) continue;
      bool safe = true;
      for (int dep : group_deps[static_cast<std::size_t>(target)]) {
        if (dep != og && depends_on(dep, og)) {
          safe = false;
          break;
        }
      }
      if (safe) merge_groups(og, target);
    }
  }

  // 2. Order groups topologically (joining an early group can add a
  // dependency on a later-created group, so creation order alone is not a
  // valid schedule) and renumber them in schedule order.
  const std::size_t ngroups = group_platform.size();
  // Groups emptied by merging are dead; they carry no deps and no members.
  std::vector<bool> live(ngroups, false);
  for (const auto& [op_id, g] : group_of) live[static_cast<std::size_t>(g)] = true;
  std::vector<int> indegree(ngroups, 0);
  std::vector<std::vector<int>> downstream(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    if (!live[g]) continue;
    for (int dep : group_deps[g]) {
      ++indegree[g];
      downstream[static_cast<std::size_t>(dep)].push_back(static_cast<int>(g));
    }
  }
  std::vector<int> schedule;  // old group ids in schedule order
  for (std::size_t g = 0; g < ngroups; ++g) {
    if (live[g] && indegree[g] == 0) schedule.push_back(static_cast<int>(g));
  }
  for (std::size_t cursor = 0; cursor < schedule.size(); ++cursor) {
    for (int next : downstream[static_cast<std::size_t>(schedule[cursor])]) {
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        schedule.push_back(next);
      }
    }
  }
  const std::size_t nlive = static_cast<std::size_t>(
      std::count(live.begin(), live.end(), true));
  if (schedule.size() != nlive) {
    return Status::Internal("stage graph has a cycle despite grouping checks");
  }
  std::vector<int> new_id(ngroups, -1);
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    new_id[static_cast<std::size_t>(schedule[pos])] = static_cast<int>(pos);
  }
  for (auto& [op_id, g] : group_of) g = new_id[static_cast<std::size_t>(g)];
  {
    std::vector<Platform*> platforms_sorted(nlive);
    std::vector<std::set<int>> deps_sorted(nlive);
    for (std::size_t g = 0; g < ngroups; ++g) {
      if (new_id[g] < 0) continue;  // dead group
      const auto ng = static_cast<std::size_t>(new_id[g]);
      platforms_sorted[ng] = group_platform[g];
      for (int dep : group_deps[g]) {
        deps_sorted[ng].insert(new_id[static_cast<std::size_t>(dep)]);
      }
    }
    group_platform = std::move(platforms_sorted);
    group_deps = std::move(deps_sorted);
  }

  // 3. Build Stage objects in schedule order.
  ExecutionPlan eplan;
  eplan.plan = &plan;
  eplan.assignment = std::move(assignment);
  for (std::size_t g = 0; g < group_platform.size(); ++g) {
    eplan.stages.emplace_back(static_cast<int>(g), group_platform[g]);
  }
  for (Operator* op : topo) {
    Stage& stage = eplan.stages[static_cast<std::size_t>(group_of.at(op->id()))];
    stage.ops_.push_back(op);
  }
  for (std::size_t g = 0; g < group_platform.size(); ++g) {
    Stage& stage = eplan.stages[g];
    for (int dep : group_deps[g]) stage.upstream_stages_.push_back(dep);
    std::sort(stage.upstream_stages_.begin(), stage.upstream_stages_.end());
    // Boundary inputs: producers in other stages.
    std::set<int> seen;
    for (Operator* op : stage.ops_) {
      for (Operator* in : op->inputs()) {
        if (group_of.at(in->id()) != static_cast<int>(g) &&
            seen.insert(in->id()).second) {
          stage.boundary_inputs_.push_back(in);
        }
      }
    }
    // Outputs: ops consumed outside the stage, plus the plan sink.
    std::set<int> outs;
    for (Operator* op : stage.ops_) {
      bool leaves = (op == plan.sink());
      for (Operator* consumer : plan.ConsumersOf(op)) {
        if (group_of.at(consumer->id()) != static_cast<int>(g)) leaves = true;
      }
      if (leaves && outs.insert(op->id()).second) {
        stage.outputs_.push_back(op);
      }
    }
  }
  eplan.final_stage = group_of.at(plan.sink()->id());
  return eplan;
}

std::string ExecutionPlan::Explain(const EstimateMap& estimates) const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "execution plan: %zu stage(s), est. cost %.1f us\n",
                stages.size(), assignment.estimated_cost_micros);
  out += buf;
  for (const Stage& s : stages) {
    std::snprintf(buf, sizeof(buf), "stage %d on %s", s.id(),
                  s.platform()->name().c_str());
    out += buf;
    if (!s.upstream_stages().empty()) {
      out += " (after";
      for (int d : s.upstream_stages()) out += " " + std::to_string(d);
      out += ")";
    }
    out += s.id() == final_stage ? "  [final]\n" : "\n";
    for (Operator* op : s.ops()) {
      out += "  #" + std::to_string(op->id()) + " " + op->kind_name();
      auto it = estimates.find(op->id());
      if (it != estimates.end()) {
        std::snprintf(buf, sizeof(buf), "  ~%.0f rec", it->second.cardinality);
        out += buf;
      }
      // Declarative operators print their predicate/projection; operators
      // whose behavior hides in a closure are marked [udf].
      if (auto* phys = dynamic_cast<const PhysicalOperator*>(op)) {
        const std::string detail = phys->Detail();
        if (!detail.empty()) {
          out += "  [" + detail + "]";
        } else if (phys->opaque()) {
          out += "  [udf]";
        }
      }
      bool is_output = std::find(s.outputs().begin(), s.outputs().end(), op) !=
                       s.outputs().end();
      if (is_output) out += "  -> boundary";
      out += "\n";
    }
  }
  return out;
}

}  // namespace rheem
