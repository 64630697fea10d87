#ifndef RHEEM_CORE_PLAN_OPERATOR_H_
#define RHEEM_CORE_PLAN_OPERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/record.h"

namespace rheem {

/// The three abstraction levels of the RHEEM processing stack (paper §3).
/// RHEEM's distinguishing design decision is the *decoupling* of the physical
/// level from the execution level: a physical plan states algorithmic intent
/// only; the multi-platform optimizer later binds each piece to a platform.
enum class OpLevel {
  kLogical,    // application layer: abstract UDF templates
  kPhysical,   // core layer: platform-independent algorithmic choices
  kExecution,  // platform layer: platform-dependent implementations
};

const char* OpLevelToString(OpLevel level);

/// \brief Base class of every plan node at any abstraction level.
///
/// An operator has an ordered list of input operators (the dataflow edges)
/// and exactly one output that downstream operators reference. Ownership of
/// operators lies with the Plan that contains them; Operator stores raw
/// non-owning upstream pointers.
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  virtual OpLevel level() const = 0;

  /// Short kind label, e.g. "Map", "HashGroupBy" (for printing/mappings).
  virtual std::string kind_name() const = 0;

  /// The operator's identity, folded into plan and sub-plan fingerprints
  /// (core/optimizer/fingerprint.h) that the plan cache, the result cache
  /// and the statistics catalog key on: equal tokens, names and wiring mean
  /// the same output bag. Every payload that decides the output belongs in
  /// it, encoded once per payload type by OpIdentity (descriptors.h).
  /// Planning inputs — hints, platform pins, the join or group-by
  /// algorithm — go only into a logical operator's token, the plan-cache
  /// key. UDF closures cannot be hashed and are still assumed equal by
  /// shape.
  virtual std::string FingerprintToken() const { return kind_name(); }

  /// Number of dataflow inputs this operator requires.
  virtual int arity() const = 0;

  const std::vector<Operator*>& inputs() const { return inputs_; }
  void AddInput(Operator* op) { inputs_.push_back(op); }
  void SetInput(std::size_t i, Operator* op) { inputs_[i] = op; }
  void ClearInputs() { inputs_.clear(); }

 protected:
  Operator() = default;

 private:
  friend class Plan;
  int id_ = -1;  // assigned by the owning Plan
  std::string name_;
  std::vector<Operator*> inputs_;
};

/// \brief Application-layer operator: an abstract UDF template (paper §3.2).
///
/// Application developers subclass LogicalOperator and implement ApplyOp, the
/// per-data-quantum hook RHEEM invokes at runtime. End users fill these
/// templates with their task logic; the application optimizer then translates
/// a logical plan into a physical plan of wrapper/enhancer operators.
class LogicalOperator : public Operator {
 public:
  OpLevel level() const override { return OpLevel::kLogical; }

  /// Applies the operator's logic to one data quantum, emitting zero or more
  /// output quanta into `out`. This is the paper's `applyOp`.
  virtual Status ApplyOp(const Record& in, std::vector<Record>* out) = 0;

  /// Estimated fraction of output quanta per input quantum (drives the
  /// cardinality estimator: 1.0 for maps, <1 for filters, >1 for flat maps).
  virtual double SelectivityHint() const { return 1.0; }

  /// Relative CPU weight of one ApplyOp call (1.0 = trivial arithmetic).
  virtual double CostHint() const { return 1.0; }

  /// Default token: kind label + concrete C++ type + hints, so two distinct
  /// application operator classes sharing a kind label never collide in the
  /// plan cache.
  std::string FingerprintToken() const override;
};

}  // namespace rheem

#endif  // RHEEM_CORE_PLAN_OPERATOR_H_
