#ifndef RHEEM_CORE_OPTIMIZER_FINGERPRINT_H_
#define RHEEM_CORE_OPTIMIZER_FINGERPRINT_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "core/plan/plan.h"
#include "data/dataset.h"

namespace rheem {

struct PlatformAssignment;  // core/optimizer/enumerator.h

/// \brief Canonical 64-bit fingerprints of plans, used by the service
/// layer's plan cache to recognize repeat queries and skip the optimizer
/// (RHEEMix-style amortization of cross-platform optimization cost).
///
/// The fingerprint folds, over the plan's deterministic topological order:
/// each operator's FingerprintToken() (its identity: kind and payload, plus
/// planning inputs on logical operators — see Operator::FingerprintToken
/// for the equal-token contract), its name,
/// its dataflow wiring (input positions in topological order), and the sink
/// position. Equal fingerprints are treated as "same job"; anything the
/// token does not encode (UDF closure bodies in particular) is assumed
/// identical between plans with equal structure.
class PlanFingerprint {
 public:
  /// FNV-1a offset basis; starting hash for incremental mixing.
  static constexpr uint64_t kSeed = 1469598103934665603ull;

  static uint64_t Mix(uint64_t h, const void* bytes, std::size_t len);
  static uint64_t Mix(uint64_t h, const std::string& s);
  static uint64_t Mix(uint64_t h, uint64_t v);

  /// Fingerprint of a plan at any abstraction level. Errors when the plan
  /// is not a valid DAG (TopologicalOrder fails) or has no sink.
  static Result<uint64_t> Compute(const Plan& plan);

  /// Fingerprint, per operator of `plan`, of the sub-plan producing its
  /// output: a fold over the operator's token, name and input count and its
  /// inputs' fingerprints. Equal fingerprints mean equal output bags under
  /// the token contract, however the jobs were split into stages, so one
  /// job can reuse or learn from a prefix of a different job.
  ///
  /// With `assignment`, each operator's platform and algorithm variant
  /// (kind_name) are folded in as well. The result cache needs them:
  /// platforms and algorithms agree on bags but not on row order, which
  /// order-sensitive consumers such as Sample observe. The statistics
  /// catalog passes none, because how many records a sub-plan yields does
  /// not depend on where or how it ran.
  static Result<std::map<int, uint64_t>> SubPlans(
      const Plan& plan, const PlatformAssignment* assignment = nullptr);

  /// Content hash of an in-memory dataset (every record). Source operators
  /// fold this into their token so that two structurally identical plans
  /// reading different collections never share a fingerprint.
  static uint64_t OfDataset(const Dataset& data);
};

}  // namespace rheem

#endif  // RHEEM_CORE_OPTIMIZER_FINGERPRINT_H_
